package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/rtree"
)

// ParallelGraphEngine materialises the full r-coverage graph (the
// r-neighbourhood graph the paper reduces DisC diversity to) once, using
// every core, and then answers Neighbors in O(degree): the repeated range
// queries that dominate Basic-DisC and the Greedy-DisC family become
// array lookups.
//
// Construction picks one of three join substrates. A uniform-grid
// cell-pair ε-join (internal/grid) serves the metrics the grid supports
// (the Lp family — see grid.Supports) at moderate dimensionality:
// points are counting-sorted into cells of side r, each cell is joined
// with its forward neighbour cells only, and every candidate pair is
// evaluated once with both edge directions emitted — roughly half the
// distance evaluations of a per-point range query, with no tree at all,
// for an O(n + candidate pairs) build. Queries at radii beyond the
// build radius are answered exactly by multi-ring grid scans, so the
// grid path never touches an R-tree. Other coordinatewise-monotone
// metrics at moderate dimensionality shard the ID space across a worker
// pool running concurrency-safe range queries against a shared
// bulk-loaded R-tree, which then also backs beyond-radius queries.
// Everything else — non-metric distances (cosine, dot product) and
// dimensionality above GraphFlatJoinDim, where bucketing degenerates to
// a handful of cells and box pruning stops pruning — uses the batched
// flat all-pairs join (grid.FlatJoin), whose fused early-exit kernels
// and optional float32 pre-filter make the dense scan the fastest
// remaining option; its fallback queries are flat scans. Every
// substrate lands the adjacency in a CSR layout (one offsets array plus
// one packed, exactly sized neighbour array), so the steady-state
// memory is precisely the edge count and walking many adjacency lists
// scans two contiguous allocations.
//
// The graph is exact for any query radius up to the build radius
// (adjacency lists are filtered by distance); larger radii fall back to
// the substrate (grid scan or R-tree), so every Engine call stays
// correct at any radius — only the cost differs. Because |N_r(p)| is
// known for every p after the build, the engine also implements
// CountingEngine and makes Greedy-DisC's initialisation pass free; the
// packed white bitset lets it also implement WhiteCounter, refreshing
// white-neighbourhood counts with O(degree) bit tests.
//
// The access counter charges one unit per adjacency entry examined
// (minimum one per lookup), mirroring the flat engine's objects-examined
// measure; grid builds and grid fallback scans charge one unit per
// candidate examined, and R-tree builds and fallback queries charge
// R-tree node accesses. Like every other engine it is not safe for
// concurrent use after construction.
type ParallelGraphEngine struct {
	flat    *object.FlatDataset
	tree    *rtree.Tree   // substrate of the R-tree path; nil otherwise
	hash    *grid.Grid    // substrate of the grid path; nil otherwise
	flatsub bool          // flat-join substrate: tree and hash both nil
	scratch *grid.Scratch // grid-path scratch for beyond-radius ring scans
	radius  float64
	workers int
	csr     *grid.CSR // adjacency rows sorted by id; exclude self
	counts  []int     // csr.Degree(i), for CountingEngine
	scan    []int
	// comps caches the connected-component decomposition at the build
	// radius: it is a pure function of the CSR, so computing (or
	// installing from a snapshot) it once serves every later selection.
	comps *grid.Components

	// clamp is the box-clamp scratch for single-threaded R-tree fallback
	// queries at radii beyond the build radius.
	clamp []float64

	accesses int64
	tracking bool
	white    bitset.Set
}

var (
	_ Engine         = (*ParallelGraphEngine)(nil)
	_ CoverageEngine = (*ParallelGraphEngine)(nil)
	_ CountingEngine = (*ParallelGraphEngine)(nil)
	_ WhiteCounter   = (*ParallelGraphEngine)(nil)
)

// GraphFlatJoinDim is the dimensionality above which the coverage-graph
// build abandons spatial bucketing for the batched flat all-pairs join:
// cells-per-axis collapses toward 1, the ±1-ring enumeration approaches
// the full cell count squared, and R-tree boxes stop pruning, while the
// flat join's tiled pre-filtered scan keeps its per-candidate cost
// flat. Measured by the highdim experiment's crossover sweep (uniform
// cube, Euclidean, r=0.15, n=5000 — see BENCH_PR7.json): the grid join
// wins clearly through d=6, loses to the flat join from d=8 on, and is
// over 2x slower by d=12.
const GraphFlatJoinDim = 7

// BuildParallelGraphEngine builds the r-coverage graph of pts under m
// with the given worker count (<= 0 selects GOMAXPROCS). The build cost
// is left on the counter, matching BuildTreeEngine; callers measuring
// query cost only should ResetAccesses first.
func BuildParallelGraphEngine(pts []object.Point, m object.Metric, r float64, workers int) (*ParallelGraphEngine, error) {
	flat, err := object.Flatten(pts, m)
	if err != nil {
		return nil, fmt.Errorf("core: graph engine: %w", err)
	}
	return BuildParallelGraphEngineOn(flat, r, workers)
}

// BuildParallelGraphEngineOn builds the r-coverage graph over an
// existing flat dataset (of either precision), choosing the join
// substrate from the metric and dimensionality: the grid ε-join for
// grid-supported metrics up to GraphFlatJoinDim, sharded R-tree range
// queries for other coordinatewise-monotone metrics up to the same
// bound, and the batched flat all-pairs join otherwise. A Float32
// dataset accelerates the grid and flat substrates through its float32
// pre-filter; selections stay bit-identical to the float64 scan over
// the same (rounded) coordinates either way.
func BuildParallelGraphEngineOn(flat *object.FlatDataset, r float64, workers int) (*ParallelGraphEngine, error) {
	m := flat.Metric()
	_, monotone := m.(object.CoordinatewiseMonotone)
	switch {
	case grid.Supports(m) && flat.Dim() <= GraphFlatJoinDim:
		return buildGraph(flat, nil, nil, nil, r, workers, false)
	case monotone && flat.Dim() <= GraphFlatJoinDim:
		tree, err := rtree.Build(flat.Points(), m, 0)
		if err != nil {
			return nil, fmt.Errorf("core: graph engine: %w", err)
		}
		scan := tree.ScanOrder()
		tree.ResetAccesses() // query costs are accounted on the engine
		return buildGraph(tree.Flat(), tree, nil, scan, r, workers, false)
	default:
		return buildGraph(flat, nil, nil, nil, r, workers, true)
	}
}

// Rebuild returns an engine over the same points with the adjacency
// lists re-joined for a different radius, reusing the radius-independent
// substrate: the packed R-tree always, and on the grid path the grid
// occupancy whenever the new radius still fits its cell side. The
// receiver is left untouched and stays usable, but the two share the
// substrate: on the R-tree path that includes the tree's pruning state,
// so they must not run queries concurrently. For r <= Radius(),
// Restrict derives the same graph without a join.
func (g *ParallelGraphEngine) Rebuild(r float64) (*ParallelGraphEngine, error) {
	return buildGraph(g.flat, g.tree, g.hash, g.scan, r, g.workers, g.flatsub)
}

// Restrict returns the coverage graph at radius r <= Radius(), derived
// from the receiver without a join: since N_r(p) ⊆ N_R(p), it is the
// receiver's adjacency with every entry above r dropped (grid.CSR.
// Restrict), one O(edges) pass that evaluates no distance. Every
// substrate stores the exact float64 distance of each edge and the
// float32 pre-filter never drops a true neighbour, so the result equals
// a fresh BuildParallelGraphEngineOn at r bit for bit — offsets, ids,
// distances, degree counts and components. At r == Radius() the
// adjacency, counts and any cached decomposition are shared, not
// copied.
//
// The receiver is only read, so it can be kept as an immutable source
// of engines for every radius up to its own. The derived engine shares
// its substrate (see Rebuild) and starts with its own clean access and
// coverage state; it keeps the receiver's scan order, which on the grid
// path is the locality order of the receiver's bucketing.
func (g *ParallelGraphEngine) Restrict(r float64) (*ParallelGraphEngine, error) {
	if r < 0 || math.IsNaN(r) || r > g.radius {
		return nil, fmt.Errorf("core: graph engine: cannot restrict a graph built at %g to radius %g", g.radius, r)
	}
	metGraphRestrictions.Inc()
	d := g.Clone()
	if r < g.radius {
		d.radius, d.csr, d.comps = r, g.csr.Restrict(r), nil
		d.counts = make([]int, g.flat.Len())
		for i := range d.counts {
			d.counts[i] = d.csr.Degree(i)
		}
	}
	return d, nil
}

// Clone returns an engine over the receiver's graph — adjacency, degree
// counts, cached decomposition and substrate shared, not copied — with
// its own clean access and coverage state, so a caller can keep the
// receiver unmodified while running queries on the clone.
func (g *ParallelGraphEngine) Clone() *ParallelGraphEngine {
	c := &ParallelGraphEngine{
		flat:    g.flat,
		tree:    g.tree,
		hash:    g.hash,
		flatsub: g.flatsub,
		scan:    g.scan,
		radius:  g.radius,
		workers: g.workers,
		csr:     g.csr,
		counts:  g.counts,
		comps:   g.comps,
	}
	if g.hash != nil {
		c.scratch = grid.NewScratch(g.flat.Dim())
	}
	if g.tree != nil {
		c.clamp = make([]float64, g.tree.Dim())
	}
	return c
}

// arenaChunk is the adjacency-arena block size (entries) each R-tree
// build worker allocates at a time; the arenas are transient and
// compacted into the exactly-sized CSR when the workers finish.
const arenaChunk = 1 << 14

// buildGraph materialises the coverage graph at radius r: via sharded
// R-tree range queries when tree is non-nil, via the batched flat
// all-pairs join when flatsub is set, and via the grid ε-join otherwise
// (hash, when non-nil, is reused as long as its cell side suits r).
func buildGraph(flat *object.FlatDataset, tree *rtree.Tree, hash *grid.Grid, scan []int, r float64, workers int, flatsub bool) (*ParallelGraphEngine, error) {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("core: graph engine: invalid radius %g", r)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := flat.Len()
	if workers > n {
		workers = n
	}
	g := &ParallelGraphEngine{
		flat:    flat,
		tree:    tree,
		radius:  r,
		workers: workers,
		scan:    scan,
	}

	switch {
	case flatsub:
		g.flatsub = true
		csr, examined, err := grid.FlatJoin(flat, r, workers)
		if err != nil {
			return nil, fmt.Errorf("core: graph engine: %w", err)
		}
		g.csr = csr
		g.accesses = examined
		// scan stays nil: the flat substrate has no locality structure,
		// so ScanOrder reports plain id order.
	case tree == nil:
		// Reuse the occupancy only while the cell side suits the new
		// radius: a much finer radius would turn the ±1-ring join into
		// a near-all-pairs scan, far costlier than the O(n) re-bucket
		// it saves (see grid.Suits). The bucketing radius itself is
		// always reused — on sparse data the cell-count cap coarsens
		// cells beyond Suits' bound and a re-bucket would reproduce the
		// same grid.
		if hash == nil || !(hash.Radius() == r || hash.Suits(r)) {
			var err error
			hash, err = grid.Build(flat, r)
			if err != nil {
				return nil, fmt.Errorf("core: graph engine: %w", err)
			}
			g.scan = nil // cell order changed with the bucketing
		}
		csr, examined, err := grid.Join(hash, r, workers)
		if err != nil {
			return nil, fmt.Errorf("core: graph engine: %w", err)
		}
		g.hash = hash
		g.scratch = grid.NewScratch(flat.Dim())
		g.csr = csr
		g.accesses = examined
		if g.scan == nil {
			g.scan = hash.ScanOrder()
		}
	default:
		g.clamp = make([]float64, tree.Dim())
		var err error
		g.csr, g.accesses, err = rtreeJoin(tree, r, workers)
		if err != nil {
			return nil, fmt.Errorf("core: graph engine: %w", err)
		}
	}
	g.counts = make([]int, n)
	for i := range g.counts {
		g.counts[i] = g.csr.Degree(i)
	}
	return g, nil
}

// rtreeJoin materialises the adjacency with one concurrency-safe R-tree
// range query per point, sharding the ID space across a worker pool.
// Each worker reuses one query buffer and one box-clamp scratch and
// packs results into a chunked arena, so the query loop allocates per
// arena block rather than per point; the arenas are then compacted into
// the exactly-sized CSR and released.
func rtreeJoin(tree *rtree.Tree, r float64, workers int) (*grid.CSR, int64, error) {
	n := tree.Len()
	adj := make([][]object.Neighbor, n) // transient: compacted below
	var total int64
	var wg sync.WaitGroup
	shard := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * shard
		hi := lo + shard
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var acc int64
			clamp := make([]float64, tree.Dim())
			scratch := make([]object.Neighbor, 0, 64)
			var arena []object.Neighbor
			for id := lo; id < hi; id++ {
				scratch = sortNeighbors(tree.AppendRangeQueryAroundInto(scratch[:0], id, r, &acc, clamp))
				if len(scratch) > cap(arena)-len(arena) {
					size := arenaChunk
					if len(scratch) > size {
						size = len(scratch)
					}
					arena = make([]object.Neighbor, 0, size)
				}
				start := len(arena)
				arena = append(arena, scratch...)
				adj[id] = arena[start:len(arena):len(arena)]
			}
			atomic.AddInt64(&total, acc)
		}(lo, hi)
	}
	wg.Wait()

	csr := &grid.CSR{Offsets: make([]int32, n+1)}
	var edges int64
	for id, row := range adj {
		edges += int64(len(row))
		if edges > math.MaxInt32 {
			return nil, 0, fmt.Errorf("coverage graph exceeds %d adjacency entries", math.MaxInt32)
		}
		csr.Offsets[id+1] = int32(edges)
	}
	csr.Nbrs = make([]object.Neighbor, edges)
	for id, row := range adj {
		copy(csr.Nbrs[csr.Offsets[id]:], row)
	}
	return csr, total, nil
}

// Radius returns the radius the coverage graph was built for.
func (g *ParallelGraphEngine) Radius() float64 { return g.radius }

// Workers returns the parallelism used during construction.
func (g *ParallelGraphEngine) Workers() int { return g.workers }

// Degree returns |N_r(id)| at the build radius.
func (g *ParallelGraphEngine) Degree(id int) int { return g.csr.Degree(id) }

// GridJoined reports whether the adjacency was built by the grid ε-join
// (as opposed to per-point R-tree queries or the flat join).
func (g *ParallelGraphEngine) GridJoined() bool { return g.hash != nil }

// FlatJoined reports whether the adjacency was built by the batched
// flat all-pairs join.
func (g *ParallelGraphEngine) FlatJoined() bool { return g.flatsub }

// Dataset exposes the engine's flat dataset (read-only by convention);
// the snapshot writer persists its storage.
func (g *ParallelGraphEngine) Dataset() *object.FlatDataset { return g.flat }

// Size implements Engine.
func (g *ParallelGraphEngine) Size() int { return g.flat.Len() }

// Metric implements Engine.
func (g *ParallelGraphEngine) Metric() object.Metric { return g.flat.Metric() }

// Point implements Engine.
func (g *ParallelGraphEngine) Point(id int) object.Point { return g.flat.Point(id) }

// charge records an adjacency lookup that examined n entries.
func (g *ParallelGraphEngine) charge(n int) {
	if n < 1 {
		n = 1
	}
	g.accesses += int64(n)
}

// Neighbors implements Engine. Radii up to the build radius are answered
// from the materialised graph; larger radii fall back to the substrate.
func (g *ParallelGraphEngine) Neighbors(id int, r float64) []object.Neighbor {
	return g.NeighborsAppend(nil, id, r)
}

// NeighborsAppend implements Engine.
func (g *ParallelGraphEngine) NeighborsAppend(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	switch {
	case r == g.radius:
		row := g.csr.Row(id)
		g.charge(len(row))
		return append(dst, row...)
	case r < g.radius:
		row := g.csr.Row(id)
		g.charge(len(row))
		for _, nb := range row {
			if nb.Dist <= r {
				dst = append(dst, nb)
			}
		}
		return dst
	case g.hash != nil:
		return g.hash.AppendRange(dst, g.flat.Row(id), r, id, &g.accesses, g.scratch)
	case g.flatsub:
		// Whole-dataset batched scan, charged like the flat engine.
		g.accesses += int64(g.flat.Len())
		return g.flat.AppendRange(dst, g.flat.Row(id), r, id)
	default:
		start := len(dst)
		dst = g.tree.AppendRangeQueryAroundInto(dst, id, r, &g.accesses, g.clamp)
		sortNeighbors(dst[start:])
		return dst
	}
}

// NeighborsOfPoint implements Engine via the substrate (arbitrary points
// have no slot in the graph).
func (g *ParallelGraphEngine) NeighborsOfPoint(q object.Point, r float64) []object.Neighbor {
	switch {
	case g.hash != nil:
		return g.hash.AppendRange(nil, q, r, -1, &g.accesses, g.scratch)
	case g.flatsub:
		g.accesses += int64(g.flat.Len())
		return g.flat.AppendRange(nil, q, r, -1)
	default:
		return sortNeighbors(g.tree.RangeQueryInto(q, r, &g.accesses))
	}
}

// ScanOrder implements Engine: the STR leaf order on the R-tree path,
// cell order on the grid path — both locality-preserving, captured at
// build time — and plain id order on the flat-join substrate, which has
// no locality structure.
func (g *ParallelGraphEngine) ScanOrder() []int {
	if g.scan == nil {
		ids := make([]int, g.flat.Len())
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	return append([]int(nil), g.scan...)
}

// Accesses implements Engine.
func (g *ParallelGraphEngine) Accesses() int64 { return g.accesses }

// ResetAccesses implements Engine.
func (g *ParallelGraphEngine) ResetAccesses() { g.accesses = 0 }

// InitialCounts implements CountingEngine: the build already knows every
// neighbourhood size, so Greedy-DisC initialisation costs nothing.
func (g *ParallelGraphEngine) InitialCounts() ([]int, float64, bool) {
	return g.counts, g.radius, true
}

// StartCoverage implements CoverageEngine. On the R-tree path the white
// set is mirrored into the tree so that fallback queries for radii
// beyond the build radius prune covered subtrees too; the grid path
// filters its fallback scans with the bitset directly.
func (g *ParallelGraphEngine) StartCoverage(white []bool) {
	if white == nil {
		g.white.Reset(g.flat.Len())
		g.white.Fill()
		if g.tree != nil {
			g.tree.EnableTracking()
		}
	} else {
		g.white.CopyBools(white)
		if g.tree != nil {
			g.tree.ResetTracking(white)
		}
	}
	g.tracking = true
}

// Cover implements CoverageEngine.
func (g *ParallelGraphEngine) Cover(id int) {
	if g.tracking && g.white.Test(id) {
		g.white.Clear(id)
		if g.tree != nil {
			g.tree.Cover(id)
		}
	}
}

// IsWhite implements CoverageEngine.
func (g *ParallelGraphEngine) IsWhite(id int) bool { return g.tracking && g.white.Test(id) }

// NeighborsWhite implements CoverageEngine: an adjacency scan that keeps
// only still-white neighbours.
func (g *ParallelGraphEngine) NeighborsWhite(id int, r float64) []object.Neighbor {
	return g.NeighborsWhiteAppend(nil, id, r)
}

// NeighborsWhiteAppend implements CoverageEngine.
func (g *ParallelGraphEngine) NeighborsWhiteAppend(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	if !g.tracking {
		panic("core: NeighborsWhite without StartCoverage")
	}
	if r > g.radius {
		switch {
		case g.hash != nil:
			// Multi-ring white-filtered cell scan; covered objects are
			// neither examined nor charged, matching the flat engine's
			// accounting (the graph path keeps no per-cell counts — the
			// fallback is cold, a bitset test per candidate suffices).
			return g.hash.AppendRangeWhite(dst, g.flat.Row(id), r, id, &g.white, nil, &g.accesses, g.scratch)
		case g.flatsub:
			return g.appendWhiteScan(dst, id, r)
		default:
			start := len(dst)
			dst = g.tree.AppendRangeQueryPrunedInto(dst, id, r, &g.accesses, g.clamp)
			sortNeighbors(dst[start:])
			return dst
		}
	}
	row := g.csr.Row(id)
	g.charge(len(row))
	for _, nb := range row {
		if g.white.Test(nb.ID) && nb.Dist <= r {
			dst = append(dst, nb)
		}
	}
	return dst
}

// appendWhiteScan is the flat substrate's white-filtered range scan:
// the fused threshold test per still-white candidate, with the exact
// recomputation on survivors — the same protocol as the flat engine's
// NeighborsWhiteAppend, and the same accounting (covered objects are
// neither examined nor charged).
func (g *ParallelGraphEngine) appendWhiteScan(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	k := g.flat.Kernel()
	rawR := k.RawThreshold(r)
	q := g.flat.Row(id)
	n := g.flat.Len()
	for j := 0; j < n; j++ {
		if !g.white.Test(j) || j == id {
			continue
		}
		g.accesses++
		row := g.flat.Row(j)
		if k.Within(q, row, rawR) {
			if d := k.Finish(k.Raw(row, q)); d <= r {
				dst = append(dst, object.Neighbor{ID: j, Dist: d})
			}
		}
	}
	return dst
}

// Components implements CoverageEngine. At the build radius the
// decomposition is one depth-first pass over the materialised CSR —
// charged like any adjacency walk, one access per entry examined — and
// is cached: it is a pure function of the graph, so later calls (every
// selection in component mode) return it for free, exactly like
// InitialCounts. A snapshot-loaded decomposition (InstallComponents)
// pre-fills the cache, which is what lets warm starts skip the pass
// entirely. Smaller radii are answered by a filtered, uncached pass;
// radii beyond the build radius fall back to the substrate's range
// queries.
func (g *ParallelGraphEngine) Components(r float64) *grid.Components {
	switch {
	case r == g.radius:
		if g.comps == nil {
			g.charge(len(g.csr.Nbrs))
			g.comps = grid.ComponentsOfCSR(g.csr, g.flat.Len(), r)
		}
		return g.comps
	case r < g.radius:
		g.charge(len(g.csr.Nbrs))
		return grid.ComponentsOfCSR(g.csr, g.flat.Len(), r)
	default:
		return componentsViaQueries(g, r)
	}
}

// CachedComponents returns the decomposition computed or installed for
// the build radius, nil when none has been derived yet. Snapshots
// persist it opportunistically through this accessor.
func (g *ParallelGraphEngine) CachedComponents() *grid.Components { return g.comps }

// AdjacencyCSR implements adjacencySource: the materialised graph serves
// the component-decomposed selection directly when the query radius is
// exactly the build radius.
func (g *ParallelGraphEngine) AdjacencyCSR(r float64) (*grid.CSR, bool) {
	if r == g.radius {
		return g.csr, true
	}
	return nil, false
}

// WhiteCount implements WhiteCounter: at radii covered by the
// materialised graph, |white ∩ N_r(id)| is a popcount-style sweep of
// packed bit tests over the adjacency list — no distance evaluation.
// No accesses are charged: the caller's fallback (direct metric
// evaluations in Greedy-DisC's White-update refresh) is likewise
// uncharged, keeping the paper-style access tables comparable across
// engines and strategies.
func (g *ParallelGraphEngine) WhiteCount(id int, r float64) (int, bool) {
	if !g.tracking || r > g.radius {
		return 0, false
	}
	row := g.csr.Row(id)
	cnt := 0
	if r == g.radius {
		for _, nb := range row {
			if g.white.Test(nb.ID) {
				cnt++
			}
		}
		return cnt, true
	}
	for _, nb := range row {
		if nb.Dist <= r && g.white.Test(nb.ID) {
			cnt++
		}
	}
	return cnt, true
}
