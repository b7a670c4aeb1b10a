package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// restrictCase is one substrate/metric/precision combination of the
// Restrict property suite, with the wide radius R its graph is built at.
type restrictCase struct {
	name string
	flat *object.FlatDataset
	R    float64
	// substrate is the join the build must pick: "grid", "rtree" or
	// "flat".
	substrate string
}

// pairQuantile returns the q-quantile of the pairwise distances among
// the first 60 points — a radius that gives a graph of moderate degree
// whatever the metric's scale.
func pairQuantile(flat *object.FlatDataset, q float64) float64 {
	m := flat.Metric()
	var ds []float64
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			ds = append(ds, m.Dist(flat.Point(i), flat.Point(j)))
		}
	}
	sort.Float64s(ds)
	return ds[int(q*float64(len(ds)))]
}

func restrictCases(t *testing.T) []restrictCase {
	t.Helper()
	var cases []restrictCase
	add := func(name string, flat *object.FlatDataset, err error, R float64, substrate string) {
		if err != nil {
			t.Fatal(err)
		}
		if R == 0 {
			R = pairQuantile(flat, 0.15)
		}
		cases = append(cases, restrictCase{name, flat, R, substrate})
	}

	// Grid substrate: low-dimensional Lp data with exact duplicates, so
	// r = 0 keeps edges too.
	low := randomPoints(400, 3, 501)
	for i := 0; i < 40; i++ {
		low[400-1-i] = append(object.Point(nil), low[i]...)
	}
	flat, err := object.Flatten(low, object.Euclidean{})
	add("grid/euclidean/f64", flat, err, 0.2, "grid")
	flat, err = object.Flatten32(low, object.Manhattan{})
	add("grid/manhattan/f32", flat, err, 0.3, "grid")

	// R-tree substrate: Hamming is coordinatewise monotone but not
	// grid-servable; integer coordinates make every distance a tie.
	rng := rand.New(rand.NewPCG(502, 503))
	ham := make([]object.Point, 300)
	for i := range ham {
		p := make(object.Point, 4)
		for j := range p {
			p[j] = float64(rng.IntN(4))
		}
		ham[i] = p
	}
	flat, err = object.Flatten(ham, object.Hamming{})
	add("rtree/hamming/f64", flat, err, 3, "rtree")

	// Flat-join substrate: embedding-width data under every metric the
	// join serves there, at both precisions.
	sph, err := dataset.Sphere(400, 128, 8, 504)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []object.Metric{object.Cosine{}, object.DotProduct{}, object.Euclidean{}} {
		flat, err = object.Flatten(sph.Points, m)
		add("flat/"+m.Name()+"/f64", flat, err, 0, "flat")
		flat, err = object.Flatten32(sph.Points, m)
		add("flat/"+m.Name()+"/f32", flat, err, 0, "flat")
	}
	return cases
}

// restrictRadii returns the radii a case is restricted to: 0, R, two
// stored edge distances (the tie boundary: r equal to an entry's Dist
// must keep it) and the float just below one of them, and fractions of
// R.
func restrictRadii(wide *ParallelGraphEngine) []float64 {
	R := wide.Radius()
	rs := []float64{0, R, R / 2, R * 0.9}
	if nb := wide.CSR().Nbrs; len(nb) > 0 {
		tie := nb[len(nb)/3].Dist
		rs = append(rs, tie, math.Nextafter(tie, math.Inf(-1)), nb[len(nb)/2].Dist)
	}
	return rs
}

// equalCSR reports whether a and b hold the same offsets, ids and
// distance bits.
func equalCSR(a, b *grid.CSR) bool {
	if !reflect.DeepEqual(a.Offsets, b.Offsets) || len(a.Nbrs) != len(b.Nbrs) {
		return false
	}
	for i := range a.Nbrs {
		if a.Nbrs[i].ID != b.Nbrs[i].ID || math.Float64bits(a.Nbrs[i].Dist) != math.Float64bits(b.Nbrs[i].Dist) {
			return false
		}
	}
	return true
}

// TestGraphRestrictMatchesFreshBuild: restricting a graph built at R to
// any r <= R must give exactly the engine a fresh build at r gives —
// CSR offsets, ids and distance bits, degree counts, component labels
// and the CSR the component-mode selection reads — on every join
// substrate, metric and precision. The source graph must be left
// untouched.
func TestGraphRestrictMatchesFreshBuild(t *testing.T) {
	for _, tc := range restrictCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			wide, err := BuildParallelGraphEngineOn(tc.flat, tc.R, 3)
			if err != nil {
				t.Fatal(err)
			}
			got := "rtree"
			switch {
			case wide.GridJoined():
				got = "grid"
			case wide.FlatJoined():
				got = "flat"
			}
			if got != tc.substrate {
				t.Fatalf("built on the %s substrate, want %s", got, tc.substrate)
			}
			if len(wide.CSR().Nbrs) == 0 {
				t.Fatalf("R=%g gives an empty graph", tc.R)
			}
			wideCSR := wide.CSR()
			wideCopy := &grid.CSR{Offsets: append([]int32(nil), wideCSR.Offsets...),
				Nbrs: append([]object.Neighbor(nil), wideCSR.Nbrs...)}
			for _, r := range restrictRadii(wide) {
				sub, err := wide.Restrict(r)
				if err != nil {
					t.Fatalf("r=%g: %v", r, err)
				}
				fresh, err := BuildParallelGraphEngineOn(tc.flat, r, 2)
				if err != nil {
					t.Fatalf("r=%g: fresh build: %v", r, err)
				}
				if sub.Radius() != r {
					t.Fatalf("r=%g: restricted engine reports radius %g", r, sub.Radius())
				}
				if !equalCSR(sub.CSR(), fresh.CSR()) {
					t.Fatalf("r=%g: restricted CSR (%d entries) differs from a fresh build (%d)", r, len(sub.CSR().Nbrs), len(fresh.CSR().Nbrs))
				}
				sc, sr, sok := sub.InitialCounts()
				fc, fr, fok := fresh.InitialCounts()
				if !sok || !fok || sr != fr || !reflect.DeepEqual(sc, fc) {
					t.Fatalf("r=%g: InitialCounts differ", r)
				}
				scp, fcp := sub.Components(r), fresh.Components(r)
				if scp.Count != fcp.Count || !reflect.DeepEqual(scp.Label, fcp.Label) {
					t.Fatalf("r=%g: components differ (%d vs %d)", r, scp.Count, fcp.Count)
				}
				acsr, ok := sub.AdjacencyCSR(r)
				if !ok || acsr != sub.CSR() {
					t.Fatalf("r=%g: restricted engine does not serve its own CSR", r)
				}
			}
			if wide.CSR() != wideCSR || !equalCSR(wideCSR, wideCopy) || wide.Radius() != tc.R || wide.CachedComponents() != nil {
				t.Fatal("Restrict modified its source graph")
			}
		})
	}
}

// TestGraphRestrictQueriesMatchFreshBuild: a restricted engine must
// answer queries — neighbour lists at and below its radius, and a
// pruned greedy selection (white-filtered queries under coverage
// tracking) with its access count — exactly like a fresh build at the
// same radius.
func TestGraphRestrictQueriesMatchFreshBuild(t *testing.T) {
	for _, tc := range restrictCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			wide, err := BuildParallelGraphEngineOn(tc.flat, tc.R, 2)
			if err != nil {
				t.Fatal(err)
			}
			r := tc.R * 0.7
			if tc.substrate == "rtree" {
				r = 2
			}
			sub, err := wide.Restrict(r)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := BuildParallelGraphEngineOn(tc.flat, r, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []int{0, 57, tc.flat.Len() - 1} {
				for _, qr := range []float64{r, r / 2} {
					if a, b := sub.Neighbors(id, qr), fresh.Neighbors(id, qr); !reflect.DeepEqual(a, b) {
						t.Fatalf("id=%d r=%g: neighbours differ", id, qr)
					}
				}
			}
			opts := GreedyOptions{Update: UpdateGrey, Pruned: true}
			a, b := GreedyDisC(sub, r, opts), GreedyDisC(fresh, r, opts)
			if !reflect.DeepEqual(a.IDs, b.IDs) || a.Accesses != b.Accesses {
				t.Fatalf("greedy differs: %d ids / %d accesses vs %d / %d", len(a.IDs), a.Accesses, len(b.IDs), b.Accesses)
			}
		})
	}
}

// TestGraphRestrictRejectsWiderRadius: Restrict only narrows; a radius
// above the source graph's, a negative one or NaN is an error, and
// every successful call counts one restriction.
func TestGraphRestrictRejectsWiderRadius(t *testing.T) {
	g := graphEngine(t, randomPoints(200, 2, 505), object.Euclidean{}, 0.1, 2)
	for _, r := range []float64{math.Nextafter(0.1, 1), 0.2, -0.01, math.NaN(), math.Inf(1)} {
		if _, err := g.Restrict(r); err == nil {
			t.Fatalf("Restrict(%g) of a graph built at 0.1 succeeded", r)
		}
	}
	before := metGraphRestrictions.Value()
	same, err := g.Restrict(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if same.CSR() != g.CSR() || same == g {
		t.Fatal("Restrict at the build radius must share the graph in a new engine")
	}
	if _, err := g.Restrict(0.05); err != nil {
		t.Fatal(err)
	}
	if n := metGraphRestrictions.Value() - before; n != 2 {
		t.Fatalf("restriction counter moved by %d, want 2", n)
	}
}
