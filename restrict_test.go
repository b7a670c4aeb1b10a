package disc

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/telemetry"
)

// embedPoints returns n clustered unit vectors in dim dimensions, the
// shape of an embedding collection.
func embedPoints(t *testing.T, n, dim int, seed uint64) []Point {
	t.Helper()
	ds, err := dataset.Sphere(n, dim, n/64, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Points
}

// sameResult fails the test unless a and b are the same answer: ids in
// selection order, radius, algorithm and access count.
func sameResult(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.IDs(), b.IDs()) || a.Radius() != b.Radius() ||
		a.Algorithm() != b.Algorithm() || a.Accesses() != b.Accesses() {
		t.Fatalf("%s: %d ids / %d accesses at %g vs %d ids / %d accesses at %g",
			what, a.Size(), a.Accesses(), a.Radius(), b.Size(), b.Accesses(), b.Radius())
	}
}

// TestZoomAccessesIndependentOfHistory: a zoom must give the same
// Result, access count included, whatever radii the diversifier served
// before it — so a zoom recomputed after a cache eviction is byte-
// identical to the first answer.
func TestZoomAccessesIndependentOfHistory(t *testing.T) {
	pts := embedPoints(t, 1000, 128, 1)
	opts := []Option{WithMetric(Cosine()), WithPrecision(PrecisionFloat32)}
	run := func(interleave bool) (out, in *Result, lin, lout *LocalZoom) {
		d, err := New(pts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Select(0.1)
		if err != nil {
			t.Fatal(err)
		}
		if interleave {
			if _, err := d.Select(0.2); err != nil {
				t.Fatal(err)
			}
		}
		if out, err = d.ZoomOut(res, 0.15, ZoomOutGreedyLargest); err != nil {
			t.Fatal(err)
		}
		if interleave {
			if _, err := d.Select(0.08); err != nil {
				t.Fatal(err)
			}
		}
		if in, err = d.ZoomIn(res, 0.08); err != nil {
			t.Fatal(err)
		}
		center := res.IDs()[0]
		if lin, err = d.LocalZoomIn(res, center, 0.08); err != nil {
			t.Fatal(err)
		}
		if lout, err = d.LocalZoomOut(res, center, 0.15); err != nil {
			t.Fatal(err)
		}
		if err := d.Verify(out); err != nil {
			t.Fatal(err)
		}
		if err := d.Verify(in); err != nil {
			t.Fatal(err)
		}
		return out, in, lin, lout
	}
	out1, in1, lin1, lout1 := run(false)
	out2, in2, lin2, lout2 := run(true)
	sameResult(t, "zoom-out", out1, out2)
	sameResult(t, "zoom-in", in1, in2)
	if !reflect.DeepEqual(lin1, lin2) || !reflect.DeepEqual(lout1, lout2) {
		t.Fatal("local zooms depend on the request history")
	}
}

// TestRestrictedDiversifierMatchesFresh is the Select/zoom conformance
// case of the retained graph: a coverage-graph Diversifier first warmed
// at a larger radius must answer every select (both modes), zoom and
// local zoom exactly like a fresh one, on every join substrate.
func TestRestrictedDiversifierMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	ham := make([]Point, 300)
	for i := range ham {
		ham[i] = Point{float64(rng.IntN(4)), float64(rng.IntN(4)), float64(rng.IntN(4)), float64(rng.IntN(4))}
	}
	for _, tc := range []struct {
		name  string
		pts   []Point
		opts  []Option
		wide  float64
		radii []float64
	}{
		{"grid", snapshotTestPoints(500, 2, 63), []Option{WithIndex(IndexCoverageGraph)}, 0.2, []float64{0.05, 0.1}},
		{"rtree", ham, []Option{WithMetric(Hamming()), WithIndex(IndexCoverageGraph)}, 3, []float64{1, 2}},
		{"flat-cosine-f32", embedPoints(t, 500, 128, 64), []Option{WithMetric(Cosine()), WithPrecision(PrecisionFloat32)}, 0.2, []float64{0.1, 0.14}},
		{"flat-euclidean-f64", embedPoints(t, 400, 20, 65), []Option{WithIndex(IndexCoverageGraph)}, 0.6, []float64{0.3, 0.4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm, err := New(tc.pts, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Select(tc.wide); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.radii {
				fresh, err := New(tc.pts, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				var base [2]*Result
				for i, d := range []*Diversifier{warm, fresh} {
					if base[i], err = d.Select(r); err != nil {
						t.Fatal(err)
					}
				}
				sameResult(t, "select", base[0], base[1])
				center := base[0].IDs()[0]
				in, out := r*0.7, r*1.4
				if tc.name == "rtree" {
					in, out = r-1, r+1
				}
				type answer struct {
					sel, zin, zout *Result
					lin, lout      *LocalZoom
				}
				var ans [2]answer
				for i, d := range []*Diversifier{warm, fresh} {
					a := &ans[i]
					if a.sel, err = d.Select(r, WithSelectMode(SelectComponents)); err != nil {
						t.Fatal(err)
					}
					if a.zout, err = d.ZoomOut(base[i], out, ZoomOutGreedyLargest); err != nil {
						t.Fatal(err)
					}
					if in > 0 {
						if a.zin, err = d.ZoomIn(base[i], in); err != nil {
							t.Fatal(err)
						}
						if a.lin, err = d.LocalZoomIn(base[i], center, in); err != nil {
							t.Fatal(err)
						}
					}
					if a.lout, err = d.LocalZoomOut(base[i], center, out); err != nil {
						t.Fatal(err)
					}
				}
				sameResult(t, "component select", ans[0].sel, ans[1].sel)
				sameResult(t, "zoom-out", ans[0].zout, ans[1].zout)
				if in > 0 {
					sameResult(t, "zoom-in", ans[0].zin, ans[1].zin)
				}
				if !reflect.DeepEqual(ans[0].lin, ans[1].lin) || !reflect.DeepEqual(ans[0].lout, ans[1].lout) {
					t.Fatalf("r=%g: local zooms differ", r)
				}
			}
			if g := warm.engine.(*core.ParallelGraphEngine); g.Radius() != tc.wide {
				t.Fatalf("warmed diversifier retains a graph at %g, want %g", g.Radius(), tc.wide)
			}
		})
	}
}

// TestRestrictRunsNoJoinAfterWarmup: once the retained graph covers the
// workload's radii, every select and zoom is served by a restriction
// and none runs the flat join.
func TestRestrictRunsNoJoinAfterWarmup(t *testing.T) {
	d, err := New(embedPoints(t, 500, 128, 66), WithMetric(Cosine()), WithPrecision(PrecisionFloat32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Select(0.2); err != nil {
		t.Fatal(err)
	}
	retained := d.engine
	restrictions := telemetry.Default().Counter("disc_graph_restrictions_total", "")
	joins := telemetry.Default().Histogram("disc_flat_join_seconds", "")
	r0, j0 := restrictions.Value(), joins.Count()
	ops := 0
	for _, r := range []float64{0.08, 0.123456, 0.15, 0.2, 0.1999} {
		res, err := d.Select(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ZoomIn(res, 0.05); err != nil {
			t.Fatal(err)
		}
		ops += 2
		if r < 0.2 {
			if _, err := d.ZoomOut(res, 0.2, ZoomOutGreedyLargest); err != nil {
				t.Fatal(err)
			}
			ops++
		}
	}
	if n := joins.Count() - j0; n != 0 {
		t.Fatalf("%d flat joins after warm-up", n)
	}
	if n := restrictions.Value() - r0; n != uint64(ops) {
		t.Fatalf("%d restrictions for %d operations", n, ops)
	}
	if d.engine != retained {
		t.Fatal("the retained graph was replaced")
	}
}

// TestRetainedGraphCap: a graph above the retention cap answers its
// request correctly but is not kept; the graph retained before it stays
// in place and keeps serving narrower radii without a join.
func TestRetainedGraphCap(t *testing.T) {
	pts := embedPoints(t, 500, 128, 67)
	opts := []Option{WithMetric(Cosine()), WithPrecision(PrecisionFloat32)}
	d, err := New(pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Select(0.1); err != nil {
		t.Fatal(err)
	}
	small := d.engine.(*core.ParallelGraphEngine)
	defer func(c int64) { retainedGraphCap = c }(retainedGraphCap)
	retainedGraphCap = small.CSR().Bytes()

	got, err := d.Select(0.2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Select(0.2)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "over-cap select", got, want)
	if err := d.Verify(got); err != nil {
		t.Fatal(err)
	}
	if d.engine != small {
		t.Fatal("a graph over the retention cap replaced the retained one")
	}
	// The over-cap graph's zoom is answered too, and still not kept.
	if _, err := d.ZoomOut(got, 0.25, ZoomOutGreedyLargest); err != nil {
		t.Fatal(err)
	}
	restrictions := telemetry.Default().Counter("disc_graph_restrictions_total", "")
	before := restrictions.Value()
	if _, err := d.Select(0.05); err != nil {
		t.Fatal(err)
	}
	if d.engine != small || restrictions.Value() != before+1 {
		t.Fatal("the retained graph did not serve a narrower radius by restriction")
	}
}
