package object

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPointBasics(t *testing.T) {
	p := Point{1, 2, 3}
	if p.Dim() != 3 {
		t.Errorf("Dim=%d", p.Dim())
	}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Error("Clone aliases storage")
	}
	if !p.Equal(Point{1, 2, 3}) || p.Equal(q) || p.Equal(Point{1, 2}) {
		t.Error("Equal misbehaves")
	}
	if s := p.String(); s != "(1, 2, 3)" {
		t.Errorf("String=%q", s)
	}
}

func TestValidatePoints(t *testing.T) {
	if _, err := ValidatePoints(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ValidatePoints([]Point{{}}); err == nil {
		t.Error("zero-dim accepted")
	}
	if _, err := ValidatePoints([]Point{{1, 2}, {1}}); err == nil {
		t.Error("ragged accepted")
	}
	if d, err := ValidatePoints([]Point{{1, 2}, {3, 4}}); err != nil || d != 2 {
		t.Errorf("got (%d,%v)", d, err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := ValidatePoints([]Point{{1, 2}, {3, v}}); err == nil {
			t.Errorf("coordinate %g accepted", v)
		}
	}
}

func TestMetricValues(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	cases := []struct {
		m    Metric
		want float64
	}{
		{Euclidean{}, 5},
		{Manhattan{}, 7},
		{Chebyshev{}, 4},
		{Hamming{}, 2},
	}
	for _, c := range cases {
		if got := c.m.Dist(a, b); got != c.want {
			t.Errorf("%s: got %g want %g", c.m.Name(), got, c.want)
		}
	}
	if got := (Hamming{}).Dist(Point{1, 2, 3}, Point{1, 5, 3}); got != 1 {
		t.Errorf("hamming partial: %g", got)
	}
}

// metric axioms via testing/quick: symmetry, identity, non-negativity and
// the triangle inequality, which the M-tree pruning depends on.
func TestMetricAxiomsQuick(t *testing.T) {
	metrics := []Metric{Euclidean{}, Manhattan{}, Chebyshev{}, Hamming{}}
	rng := rand.New(rand.NewPCG(1, 2))
	gen := func() Point {
		p := make(Point, 4)
		for i := range p {
			// Coarse grid so Hamming sees collisions too.
			p[i] = math.Round(rng.Float64()*8) / 8
		}
		return p
	}
	for _, m := range metrics {
		prop := func(_ uint8) bool {
			a, b, c := gen(), gen(), gen()
			dab, dba := m.Dist(a, b), m.Dist(b, a)
			if dab != dba || dab < 0 {
				return false
			}
			if m.Dist(a, a) != 0 {
				return false
			}
			return m.Dist(a, c) <= m.Dist(a, b)+m.Dist(b, c)+1e-12
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestMetricByName(t *testing.T) {
	for _, name := range []string{"euclidean", "l2", "manhattan", "l1", "chebyshev", "linf", "hamming", "cosine", "dot", "inner-product"} {
		if _, err := MetricByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := MetricByName("mahalanobis"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestMaxPairwiseDist(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {0.5, 0.5}}
	if got := MaxPairwiseDist(pts, Euclidean{}); got != 1 {
		t.Errorf("got %g", got)
	}
}

func TestDatasetBoundsAndNormalize(t *testing.T) {
	d := &Dataset{Points: []Point{{2, -1}, {4, 3}, {3, 1}}}
	lo, hi := d.Bounds()
	if !lo.Equal(Point{2, -1}) || !hi.Equal(Point{4, 3}) {
		t.Fatalf("bounds lo=%v hi=%v", lo, hi)
	}
	d.Normalize()
	lo, hi = d.Bounds()
	if !lo.Equal(Point{0, 0}) || !hi.Equal(Point{1, 1}) {
		t.Fatalf("normalized bounds lo=%v hi=%v", lo, hi)
	}
	// Constant dimension maps to zero.
	c := &Dataset{Points: []Point{{5}, {5}}}
	c.Normalize()
	if c.Points[0][0] != 0 || c.Points[1][0] != 0 {
		t.Error("constant dimension not zeroed")
	}
}

func TestDatasetLabelsAndValues(t *testing.T) {
	d := &Dataset{
		Points: []Point{{0}, {1}},
		Labels: []string{"a", ""},
		Values: [][]string{{"zero", "one"}},
	}
	if d.Label(0) != "a" || d.Label(1) != "#1" || d.Label(5) != "#5" {
		t.Error("labels wrong")
	}
	if d.ValueString(0, 0) != "zero" || d.ValueString(1, 0) != "one" {
		t.Error("values wrong")
	}
	plain := &Dataset{Points: []Point{{2.5}}}
	if plain.ValueString(0, 0) != "2.5" {
		t.Errorf("plain value %q", plain.ValueString(0, 0))
	}
}

func TestDatasetSubset(t *testing.T) {
	d := &Dataset{
		Points: []Point{{0}, {1}, {2}},
		Labels: []string{"a", "b", "c"},
	}
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 || !s.Points[0].Equal(Point{2}) || s.Labels[1] != "a" {
		t.Errorf("subset wrong: %+v", s)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := &Dataset{
		Points:    []Point{{0.25, 1}, {0.5, 2}},
		Labels:    []string{"first", "second"},
		AttrNames: []string{"x", "y"},
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || !back.Points[1].Equal(Point{0.5, 2}) || back.Labels[0] != "first" {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if back.AttrNames[0] != "x" || back.AttrNames[1] != "y" {
		t.Errorf("attr names: %v", back.AttrNames)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"notlabel,x\n1,2\n",
		"label,x\na,notanumber\n",
	}
	for _, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}
