package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/manager"
	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/snap"
	"github.com/discdiversity/disc/internal/telemetry"
	"github.com/discdiversity/disc/internal/wal"
)

// perLayerSpec lists every per-layer metric the traced run prints, in
// order. A layer or route a workload does not exercise reports 0.
var perLayerSpec = []struct{ name, unit string }{
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.cpu_pct", "%"},
	{"loadgen.repeat_share", "share"},
	{"loadgen.tracing_overhead_pct", "%"},
	{"server.select.handler_ms", "ms"},
	{"server.select.handler_ms_p99", "ms"},
	{"server.select.overhead_ms", "ms"},
	{"server.select.response_bytes", "B"},
	{"server.select.unexplained_ms", "ms"},
	{"server.zoom.handler_ms", "ms"},
	{"server.zoom.handler_ms_p99", "ms"},
	{"server.zoom.overhead_ms", "ms"},
	{"server.zoom.response_bytes", "B"},
	{"server.zoom.unexplained_ms", "ms"},
	{"server.localzoom.handler_ms", "ms"},
	{"server.localzoom.handler_ms_p99", "ms"},
	{"server.localzoom.overhead_ms", "ms"},
	{"server.localzoom.response_bytes", "B"},
	{"server.localzoom.unexplained_ms", "ms"},
	{"server.mutate.handler_ms", "ms"},
	{"server.mutate.handler_ms_p99", "ms"},
	{"server.mutate.overhead_ms", "ms"},
	{"server.mutate.response_bytes", "B"},
	{"server.mutate.unexplained_ms", "ms"},
	{"server.selection.handler_ms", "ms"},
	{"server.selection.handler_ms_p99", "ms"},
	{"server.selection.overhead_ms", "ms"},
	{"server.selection.response_bytes", "B"},
	{"server.selection.unexplained_ms", "ms"},
	{"disc.select_ms", "ms"},
	{"disc.select_ms_p99", "ms"},
	{"disc.zoom_ms", "ms"},
	{"disc.zoom_ms_p99", "ms"},
	{"disc.localzoom_ms", "ms"},
	{"disc.localzoom_ms_p99", "ms"},
	{"disc.mutate_ms", "ms"},
	{"disc.mutate_ms_p99", "ms"},
	{"disc.flush_ms", "ms"},
	{"disc.flush_ms_p99", "ms"},
	{"disc.selection_us", "us"},
	{"disc.checkpoint_ms", "ms"},
	{"disc.new_ms", "ms"},
	{"core.greedy_ms", "ms"},
	{"core.zoomin_ms", "ms"},
	{"core.zoomout_ms", "ms"},
	{"core.localzoom_ms", "ms"},
	{"core.accesses_per_select", "count"},
	{"core.repaired_components_per_op", "count"},
	{"mtree.build_ms", "ms"},
	{"grid.build_ms", "ms"},
	{"grid.join_ms", "ms"},
	{"grid.flatjoin_ms", "ms"},
	{"grid.components_ms", "ms"},
	{"grid.join_edges", "count"},
	{"object.filter_ns_row", "ns"},
	{"wal.append_us", "us"},
	{"wal.sync_ms", "ms"},
	{"wal.fsyncs_per_op", "count"},
	{"snap.write_ms", "ms"},
	{"snap.bytes", "B"},
	{"manager.lookup_us", "us"},
}

// Replay sample sizes: how many ops per route the decomposition replays
// on explore and embed. Ingest replays every op, because each mutation
// changes the state the next one sees.
const (
	exploreReplayOps = 120
	embedReplayOps   = 40
)

// span is one request as the recorder saw it around the server handler.
type span struct {
	start, end time.Duration
	bytes      int
}

func (s *span) ms() float64 { return float64(s.end-s.start) / 1e6 }

// recorder wraps server.New(...).Handler(): it times every request and
// keys the span by the X-Request-Id the client set. Spans stay in memory
// until the run ends.
type recorder struct {
	next  http.Handler
	t0    time.Time
	mu    sync.Mutex
	spans map[string]*span
}

func newRecorder(h http.Handler) *recorder {
	return &recorder{next: h, t0: time.Now(), spans: map[string]*span{}}
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := req.Header.Get("X-Request-Id")
	cw := &countingWriter{ResponseWriter: w}
	start := time.Since(r.t0)
	r.next.ServeHTTP(cw, req)
	sp := &span{start: start, end: time.Since(r.t0), bytes: cw.n}
	r.mu.Lock()
	r.spans[id] = sp
	r.mu.Unlock()
}

func (r *recorder) span(id string) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id]
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += n
	return n, err
}

// Unwrap keeps http.NewResponseController (the server's deadlines)
// working through the recorder.
func (cw *countingWriter) Unwrap() http.ResponseWriter { return cw.ResponseWriter }

// traceRun is the outcome of the traced run.
type traceRun struct {
	report    map[string]any
	perLayer  metrics
	fails     []string
	attempted int
	failed    int
}

// inProcessRun runs the workload against server.New(...).Handler() in
// this process, over loopback.
type inProcessRun struct {
	res   *runResult
	warm  *runResult
	rec   *recorder
	fails []string
	rps   float64
	// fsyncs and mutations over the window, for wal.fsyncs_per_op.
	fsyncs    uint64
	mutations int
	// Requests attempted and failed in the window.
	attempted, failed int
}

func runInProcess(o options, w *workload, dir string, traced bool) (*inProcessRun, error) {
	ip, err := startInProcess(w, dir, traced)
	if err != nil {
		return nil, err
	}
	defer ip.stop()
	c := newClient(ip.base)
	defer c.close()
	if err := w.setup(c); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	fsyncs := telemetry.Default().Counter("disc_wal_fsyncs_total", "")
	// Counted from the end of the warm-up, as the window's mutations are.
	var f0 uint64
	m := measure(o, w, ip.base, nil, nil, func() { f0 = fsyncs.Value() })
	res := m.res
	r := &inProcessRun{res: res, warm: m.warm, rec: ip.rec, fsyncs: fsyncs.Value() - f0}
	completed := 0
	for _, s := range res.samples {
		if s.ok && s.op.route != routeCheckpoint {
			completed++
		}
		if s.op.route == routeMutate {
			r.mutations++
		}
	}
	r.rps = float64(completed) / res.elapsed.Seconds()
	if r.fails, err = checkRun(w, res.samples, res.live, c); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	// After checkRun, which marks the answers that failed a check.
	r.attempted, r.failed = m.counts()
	return r, nil
}

// traced is one op of the traced window with its handler span.
type traced struct {
	s  *sample
	sp *span
	// prevSelect is the radius of the last select whose handler started
	// before this op's, i.e. the radius the server's engine was last
	// built at (0 when none).
	prevSelect float64
}

// decomposition collects the replay's spans.
type decomposition struct {
	series map[string][]float64
	// Per replayed op: the disc call's time and the sum of its direct
	// layer spans, both in ms.
	discMS  map[string]float64
	layerMS map[string]float64
}

func (d *decomposition) add(name string, v float64) { d.series[name] = append(d.series[name], v) }

func (d *decomposition) op(reqID string, discMS, layerMS float64) {
	d.discMS[reqID] = discMS
	d.layerMS[reqID] = layerMS
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// runTrace runs the same op stream (same seed) in process twice, untraced
// and traced, then replays the traced window's ops through each layer's
// entry points on the same inputs.
func runTrace(o options, w *workload, e *e2eRun, dir string) (*traceRun, error) {
	plain, err := runInProcess(o, w, filepath.Join(dir, "plain"), false)
	if err != nil {
		return nil, fmt.Errorf("untraced in-process run: %w", err)
	}
	tr, err := runInProcess(o, w, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}

	// ops are the measured window's requests; all adds the warm-up's,
	// which the replay needs to reach the same state.
	var ops, all []*traced
	for _, r := range []*runResult{tr.warm, tr.res} {
		for _, s := range r.samples {
			if sp := tr.rec.span(s.reqID); sp != nil && s.ok {
				t := &traced{s: s, sp: sp}
				all = append(all, t)
				if r == tr.res {
					ops = append(ops, t)
				}
			}
		}
	}
	byStart := func(ts []*traced) {
		sort.Slice(ts, func(i, j int) bool { return ts[i].sp.start < ts[j].sp.start })
	}
	byStart(ops)
	byStart(all)
	last := 0.0
	for _, t := range all {
		t.prevSelect = last
		if t.s.op.route == routeSelect {
			last = t.s.op.radius
		}
	}

	d := &decomposition{series: map[string][]float64{}, discMS: map[string]float64{}, layerMS: map[string]float64{}}
	switch w.name {
	case "explore":
		err = replayExplore(w, sampleOps(ops, exploreReplayOps), d)
	case "embed":
		err = replayEmbed(w, sampleOps(ops, embedReplayOps), d)
	default:
		err = replayIngest(w, all, d, filepath.Join(dir, "mirror"))
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	out := metrics{}
	for _, m := range perLayerSpec {
		out.set(m.name, 0, m.unit)
	}
	set := func(name string, v float64) { out.set(name, v, out[name].Unit) }
	set("loadgen.late_ms_p99", quantile(e.res.lateMS, 0.99))
	set("loadgen.cpu_pct", e.res.cpuPct)
	set("loadgen.repeat_share", e.report["properties"].(map[string]any)["repeat_share"].(float64))
	set("loadgen.tracing_overhead_pct", 100*(plain.rps-tr.rps)/plain.rps)

	residuals := map[string]any{}
	for r := routeSelect; r <= routeSelection; r++ {
		var handler, bytes, replayedHandler, discs, layers, overhead, unexplained []float64
		for _, t := range ops {
			if t.s.op.route != r {
				continue
			}
			handler = append(handler, t.sp.ms())
			bytes = append(bytes, float64(t.sp.bytes))
			if dm, ok := d.discMS[t.s.reqID]; ok {
				lm := d.layerMS[t.s.reqID]
				replayedHandler = append(replayedHandler, t.sp.ms())
				discs = append(discs, dm)
				layers = append(layers, lm)
				overhead = append(overhead, t.sp.ms()-dm)
				unexplained = append(unexplained, dm-lm)
			}
		}
		if len(handler) == 0 {
			continue
		}
		p := "server." + r.String() + "."
		set(p+"handler_ms", median(handler))
		set(p+"handler_ms_p99", quantile(handler, 0.99))
		set(p+"overhead_ms", median(overhead))
		set(p+"response_bytes", mean(bytes))
		set(p+"unexplained_ms", mean(unexplained))
		// Means add up: handler = overhead + disc, disc = layers +
		// unexplained, over the replayed ops.
		residuals[r.String()] = map[string]any{
			"replayed_ops": len(discs), "handler_ms_mean": mean(replayedHandler),
			"overhead_ms_mean": mean(overhead), "disc_ms_mean": mean(discs),
			"layers_ms_mean": mean(layers), "unexplained_ms_mean": mean(unexplained),
		}
	}
	for name, xs := range d.series {
		switch name {
		case "disc.select_ms", "disc.zoom_ms", "disc.localzoom_ms", "disc.mutate_ms", "disc.flush_ms":
			set(name, median(xs))
			set(name+"_p99", quantile(xs, 0.99))
		case "core.accesses_per_select", "core.repaired_components_per_op", "grid.join_edges", "snap.bytes":
			set(name, mean(xs))
		default:
			set(name, median(xs))
		}
	}
	if tr.mutations > 0 {
		set("wal.fsyncs_per_op", float64(tr.fsyncs)/float64(tr.mutations))
	}

	t := &traceRun{perLayer: out, fails: append(plain.fails, tr.fails...),
		attempted: plain.attempted + tr.attempted, failed: plain.failed + tr.failed}
	t.report = map[string]any{
		"untraced_in_process_rps": plain.rps,
		"traced_in_process_rps":   tr.rps,
		"reconciliation":          residuals,
		"checks":                  map[string]any{"failures": t.fails},
		"per_layer":               out,
	}
	return t, nil
}

// sampleOps keeps up to k evenly spaced ops of each route, in order.
func sampleOps(ops []*traced, k int) []*traced {
	count := map[route]int{}
	for _, t := range ops {
		count[t.s.op.route]++
	}
	seen := map[route]int{}
	var out []*traced
	for _, t := range ops {
		r := t.s.op.route
		n := count[r]
		i := seen[r]
		seen[r]++
		stride := max(n/k, 1)
		if i%stride == 0 && i/stride < k {
			out = append(out, t)
		}
	}
	return out
}

func points(w *workload) []disc.Point {
	pts := make([]disc.Point, len(w.points))
	for i, p := range w.points {
		pts[i] = p
	}
	return pts
}

var greedy = core.GreedyOptions{Update: core.UpdateGrey, Pruned: true}

// replayExplore replays sampled explore ops on a Diversifier with the
// default M-tree index (the disc span) and on the core algorithms over
// an M-tree engine built the same way (the layer spans).
func replayExplore(w *workload, ops []*traced, d *decomposition) error {
	pts := points(w)
	t := time.Now()
	div, err := disc.New(pts)
	if err != nil {
		return err
	}
	d.add("disc.new_ms", msSince(t))
	cfg := mtree.Config{Capacity: 50, Metric: object.Euclidean{}, Policy: mtree.MinOverlap}
	t = time.Now()
	tree, err := mtree.Build(cfg, pts)
	if err != nil {
		return err
	}
	d.add("mtree.build_ms", msSince(t))
	eng := core.NewTreeEngine(tree)
	pinned, err := div.Select(explorePinned)
	if err != nil {
		return err
	}
	psol := core.GreedyDisC(eng, explorePinned, greedy)

	for _, tr := range ops {
		o := tr.s.op
		var discMS, coreMS float64
		switch o.route {
		case routeSelect:
			t := time.Now()
			_, err = div.Select(o.radius)
			discMS = msSince(t)
			t = time.Now()
			sol := core.GreedyDisC(eng, o.radius, greedy)
			coreMS = msSince(t)
			d.add("disc.select_ms", discMS)
			d.add("core.greedy_ms", coreMS)
			d.add("core.accesses_per_select", float64(sol.Accesses))
		case routeZoom:
			t := time.Now()
			if o.radius < explorePinned {
				_, err = div.ZoomIn(pinned, o.radius)
				discMS = msSince(t)
				t = time.Now()
				_, err2 := core.ZoomIn(eng, psol.Clone(), o.radius, true, true)
				coreMS = msSince(t)
				err = firstErr(err, err2)
				d.add("core.zoomin_ms", coreMS)
			} else {
				_, err = div.ZoomOut(pinned, o.radius, disc.ZoomOutGreedyLargest)
				discMS = msSince(t)
				t = time.Now()
				prev := psol.Clone()
				if !prev.DistBlackExact {
					core.RecomputeDistBlack(eng, prev)
				}
				_, err2 := core.ZoomOut(eng, prev, o.radius, core.ZoomOutGreedyA)
				coreMS = msSince(t)
				err = firstErr(err, err2)
				d.add("core.zoomout_ms", coreMS)
			}
			d.add("disc.zoom_ms", discMS)
		case routeLocalZoom:
			t := time.Now()
			var err2 error
			if o.radius < explorePinned {
				_, err = div.LocalZoomIn(pinned, o.center, o.radius)
				discMS = msSince(t)
				t = time.Now()
				_, err2 = core.LocalZoomIn(eng, psol.Clone(), o.center, o.radius, true)
			} else {
				_, err = div.LocalZoomOut(pinned, o.center, o.radius)
				discMS = msSince(t)
				t = time.Now()
				_, err2 = core.LocalZoomOut(eng, psol.Clone(), o.center, o.radius)
			}
			coreMS = msSince(t)
			err = firstErr(err, err2)
			d.add("disc.localzoom_ms", discMS)
			d.add("core.localzoom_ms", coreMS)
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", tr.s.reqID, o.key, err)
		}
		d.op(tr.s.reqID, discMS, coreMS)
	}
	return nil
}

// replayEmbed replays sampled embed ops. Before each, the mirror's
// coverage graph is rebuilt (untimed) at the radius the server's engine
// last had, so a zoom meets the engine it met on the server.
func replayEmbed(w *workload, ops []*traced, d *decomposition) error {
	pts := points(w)
	opts := []disc.Option{disc.WithMetric(disc.Cosine()), disc.WithPrecision(disc.PrecisionFloat32)}
	t := time.Now()
	div, err := disc.New(pts, opts...)
	if err != nil {
		return err
	}
	d.add("disc.new_ms", msSince(t))
	flat, err := object.Flatten32(pts, object.Cosine{})
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	kern := flat.Kernel()
	filterRows := func(r float64) {
		// The batched filter over every row, for a fixed set of queries.
		const queries = 32
		rawR := kern.RawThreshold(r)
		dst := make([]int32, 0, flat.Len())
		t := time.Now()
		for q := 0; q < queries; q++ {
			dst = kern.FilterWithin(flat.Row(q), flat.Coords(), 0, rawR, dst[:0])
		}
		d.add("object.filter_ns_row", float64(time.Since(t).Nanoseconds())/float64(queries*flat.Len()))
	}

	for _, tr := range ops {
		o := tr.s.op
		var discMS, layerMS float64
		switch o.route {
		case routeSelect:
			t := time.Now()
			_, err = div.Select(o.radius)
			discMS = msSince(t)
			t = time.Now()
			g, err2 := core.BuildParallelGraphEngineOn(flat, o.radius, 0)
			if err2 != nil {
				return err2
			}
			buildMS := msSince(t)
			t = time.Now()
			sol := core.GreedyDisC(g, o.radius, greedy)
			greedyMS := msSince(t)
			layerMS = buildMS + greedyMS
			d.add("disc.select_ms", discMS)
			d.add("core.greedy_ms", greedyMS)
			d.add("core.accesses_per_select", float64(sol.Accesses))
			t = time.Now()
			csr, _, err2 := grid.FlatJoin(flat, o.radius, workers)
			if err2 != nil {
				return err2
			}
			d.add("grid.flatjoin_ms", msSince(t))
			d.add("grid.join_edges", float64(len(csr.Nbrs)/2))
			filterRows(o.radius)
		case routeZoom:
			// Untimed: the base answer, then the engine at the radius the
			// server last built it for.
			base, err2 := div.Select(o.baseRadius)
			if err2 != nil {
				return err2
			}
			g0, err2 := core.BuildParallelGraphEngineOn(flat, o.baseRadius, 0)
			if err2 != nil {
				return err2
			}
			bsol := core.GreedyDisC(g0, o.baseRadius, greedy)
			ge := g0
			if tr.prevSelect != 0 && tr.prevSelect != o.baseRadius {
				if _, err2 = div.Select(tr.prevSelect); err2 != nil {
					return err2
				}
				if ge, err2 = core.BuildParallelGraphEngineOn(flat, tr.prevSelect, 0); err2 != nil {
					return err2
				}
			}
			t := time.Now()
			if o.radius < o.baseRadius {
				_, err = div.ZoomIn(base, o.radius)
				discMS = msSince(t)
				t = time.Now()
				_, err2 = core.ZoomIn(ge, bsol.Clone(), o.radius, true, true)
				layerMS = msSince(t)
				d.add("core.zoomin_ms", layerMS)
			} else {
				_, err = div.ZoomOut(base, o.radius, disc.ZoomOutGreedyLargest)
				discMS = msSince(t)
				t = time.Now()
				prev := bsol.Clone()
				if !prev.DistBlackExact {
					core.RecomputeDistBlack(ge, prev)
				}
				_, err2 = core.ZoomOut(ge, prev, o.radius, core.ZoomOutGreedyA)
				layerMS = msSince(t)
				d.add("core.zoomout_ms", layerMS)
			}
			err = firstErr(err, err2)
			d.add("disc.zoom_ms", discMS)
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", tr.s.reqID, o.key, err)
		}
		d.op(tr.s.reqID, discMS, layerMS)
	}
	return nil
}

// replayIngest replays every traced ingest op, in the order the server
// started them, on three mirrors fed the same inputs: a durable
// disc.Updater (the disc span, like the one the manager owns), a
// core.LiveDisC plus a write-ahead log (its layer spans), and a
// memory-only manager for the per-request lookup.
func replayIngest(w *workload, ops []*traced, d *decomposition, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pts := points(w)
	t := time.Now()
	seed, err := disc.NewUpdater(pts, ingestRadius)
	if err != nil {
		return err
	}
	d.add("disc.new_ms", msSince(t))
	snapPath := filepath.Join(dir, "mirror.discsnap")
	if err := seed.SaveSnapshot(snapPath); err != nil {
		return err
	}
	u, err := disc.OpenUpdater(snapPath, filepath.Join(dir, "mirror.wal"), ingestRadius,
		disc.WithFsync(disc.FsyncInterval), disc.WithFsyncInterval(100*time.Millisecond))
	if err != nil {
		return err
	}
	defer u.Close()

	flat, err := object.Flatten(pts, object.Euclidean{})
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	t = time.Now()
	g, err := grid.Build(flat, ingestRadius)
	if err != nil {
		return err
	}
	d.add("grid.build_ms", msSince(t))
	t = time.Now()
	csr, _, err := grid.Join(g, ingestRadius, workers)
	if err != nil {
		return err
	}
	d.add("grid.join_ms", msSince(t))
	d.add("grid.join_edges", float64(len(csr.Nbrs)/2))
	t = time.Now()
	grid.ComponentsOfCSR(csr, flat.Len(), ingestRadius)
	d.add("grid.components_ms", msSince(t))
	lv, err := core.SeedLiveDisC(flat, ingestRadius, workers)
	if err != nil {
		return err
	}

	log, _, err := wal.Open(filepath.Join(dir, "layer.wal"), wal.Options{Radius: ingestRadius, Metric: "euclidean", Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	defer log.Close()
	mgr := manager.New(manager.Config{})
	defer mgr.Close()
	if _, err := mgr.Create(w.name, "euclidean", ingestRadius, pts[:16]); err != nil {
		return err
	}

	// Server ids map to each mirror's own ids: concurrent inserts may
	// reach the server in another order than their handlers started.
	discID := map[int]int{}
	coreID := map[int]int{}
	for i := range pts {
		discID[i], coreID[i] = i, i
	}
	var lastSync time.Duration
	for _, tr := range ops {
		o := tr.s.op
		if tr.sp.start-lastSync >= 100*time.Millisecond {
			t := time.Now()
			if err := log.Sync(); err != nil {
				return err
			}
			d.add("wal.sync_ms", msSince(t))
			lastSync = tr.sp.start
		}
		t := time.Now()
		md, err := mgr.Get(w.name)
		if err == nil {
			if o.route == routeSelection {
				_, err = md.View()
			} else {
				_, err = md.Updater()
			}
		}
		if err != nil {
			return err
		}
		d.add("manager.lookup_us", msSince(t)*1e3)

		var discMS, layerMS float64
		switch o.route {
		case routeMutate:
			sid := tr.s.liveID
			var walOp wal.Op
			t := time.Now()
			var coreT time.Time
			if o.insert {
				id, err := u.Insert(o.point)
				if err != nil {
					return err
				}
				mutMS := msSince(t)
				discID[sid] = id
				walOp = wal.Op{Kind: wal.OpInsert, ID: int64(id), Point: o.point}
				d.add("disc.mutate_ms", mutMS)
				discMS = mutMS
				coreT = time.Now()
				cid, err := lv.Insert(o.point)
				if err != nil {
					return err
				}
				coreID[sid] = cid
			} else {
				id := discID[sid]
				if err := u.Delete(id); err != nil {
					return err
				}
				mutMS := msSince(t)
				walOp = wal.Op{Kind: wal.OpDelete, ID: int64(id)}
				d.add("disc.mutate_ms", mutMS)
				discMS = mutMS
				coreT = time.Now()
				if err := lv.Delete(coreID[sid]); err != nil {
					return err
				}
			}
			coreMutMS := msSince(coreT)
			t = time.Now()
			repaired := u.Flush()
			flushMS := msSince(t)
			discMS += flushMS
			d.add("disc.flush_ms", flushMS)
			d.add("core.repaired_components_per_op", float64(repaired))
			t = time.Now()
			lv.Flush()
			coreFlushMS := msSince(t)
			t = time.Now()
			if err := log.Append(walOp); err != nil {
				return err
			}
			appendMS := msSince(t)
			d.add("wal.append_us", appendMS*1e3)
			layerMS = coreMutMS + coreFlushMS + appendMS
		case routeSelection:
			t := time.Now()
			_ = u.Selection()
			discMS = msSince(t)
			d.add("disc.selection_us", discMS*1e3)
			t = time.Now()
			_ = lv.Selection()
			layerMS = msSince(t)
		case routeCheckpoint:
			t := time.Now()
			if err := u.Checkpoint(snapPath); err != nil {
				return err
			}
			d.add("disc.checkpoint_ms", msSince(t))
			if err := snapWrite(snapPath, d); err != nil {
				return err
			}
			continue
		}
		d.op(tr.s.reqID, discMS, layerMS)
	}
	return nil
}

// snapWrite reads the checkpoint the mirror wrote and times encoding it
// again through snap.Write.
func snapWrite(path string, d *decomposition) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	s, err := snap.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	cw := &byteCounter{}
	t := time.Now()
	if err := snap.Write(cw, s); err != nil {
		return err
	}
	d.add("snap.write_ms", msSince(t))
	d.add("snap.bytes", float64(cw.n))
	return nil
}

type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n += int64(len(p))
	return len(p), nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}
