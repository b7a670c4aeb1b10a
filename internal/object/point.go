// Package object provides the metric-space primitives shared by every other
// package in this repository: points, distance metrics and datasets.
//
// Objects are identified by their integer position (ID) inside a Dataset.
// All algorithms in internal/core and all index structures in internal/mtree
// operate on these IDs, which keeps bookkeeping arrays compact and makes
// solutions directly comparable across engines.
package object

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a vector in a d-dimensional space. For categorical datasets
// (compared with the Hamming metric) each coordinate holds an integer
// category code.
type Point []float64

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns an independent copy of the point.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point as "(x1, x2, ...)" with compact float formatting.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Neighbor is an object ID paired with its distance from some query object.
// Range queries return neighbors so that callers never need to recompute
// distances the index has already evaluated.
type Neighbor struct {
	ID   int
	Dist float64
}

// ValidatePoints checks that all points are non-empty, share the same
// dimensionality and have finite coordinates, returning that
// dimensionality. A NaN or infinite coordinate makes every distance to
// the point meaningless, so it is refused up front.
func ValidatePoints(pts []Point) (int, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("object: empty point set")
	}
	d := len(pts[0])
	if d == 0 {
		return 0, fmt.Errorf("object: zero-dimensional point at index 0")
	}
	for i, p := range pts {
		if len(p) != d {
			return 0, fmt.Errorf("object: point %d has dimension %d, want %d", i, len(p), d)
		}
		if err := CheckFinite(p); err != nil {
			return 0, fmt.Errorf("object: point %d: %w", i, err)
		}
	}
	return d, nil
}

// CheckFinite refuses a NaN or infinite coordinate. It guards the
// points that enter the program (ValidatePoints, live inserts), not
// DynDataset.Append, which also replays logs written before the rule.
func CheckFinite(p Point) error {
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("coordinate %d is %g, not a finite number", j, v)
		}
	}
	return nil
}
