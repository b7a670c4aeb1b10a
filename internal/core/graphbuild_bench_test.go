package core

// Benchmarks for the coverage-graph build pipeline at the repo's
// canonical 50k-point workload (see BENCH_PR3.json): the full engine
// build and its three phases — R-tree packing, grid bucketing and the
// cell-pair ε-join. Single-worker, so numbers are comparable across
// machines regardless of core count. BenchmarkGraphRestrict sets the
// join against deriving a narrower graph from a wider one.

import (
	"testing"

	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/rtree"
)

func BenchmarkGraphBuild50k(b *testing.B) {
	ds, _ := dataset.Clustered(50000, 2, 0, 42)
	m := object.Euclidean{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := BuildParallelGraphEngine(ds.Points, m, 0.0025, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTreeBuild50k(b *testing.B) {
	ds, _ := dataset.Clustered(50000, 2, 0, 42)
	m := object.Euclidean{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := rtree.Build(ds.Points, m, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridBucket50k(b *testing.B) {
	ds, _ := dataset.Clustered(50000, 2, 0, 42)
	m := object.Euclidean{}
	flat, _ := object.Flatten(ds.Points, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := grid.Build(flat, 0.0025)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridJoin50k(b *testing.B) {
	ds, _ := dataset.Clustered(50000, 2, 0, 42)
	m := object.Euclidean{}
	flat, _ := object.Flatten(ds.Points, m)
	g, _ := grid.Build(flat, 0.0025)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := grid.Join(g, 0.0025, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphRestrict compares the two ways to get the coverage
// graph at r = 0.15 of 1,000 128-d cosine float32 vectors (the embed
// workload's shape): a single-worker flat join at r, and Restrict of a
// graph already joined at R = 0.2.
func BenchmarkGraphRestrict(b *testing.B) {
	ds, err := dataset.Sphere(1000, 128, 1000/64, 1)
	if err != nil {
		b.Fatal(err)
	}
	flat, err := object.Flatten32(ds.Points, object.Cosine{})
	if err != nil {
		b.Fatal(err)
	}
	const R, r = 0.2, 0.15
	wide, err := BuildParallelGraphEngineOn(flat, R, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("FlatJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := grid.FlatJoin(flat, r, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Restrict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wide.Restrict(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
