// Command e2ebench is the repository benchmark: it drives discserve with
// one of three seeded workloads (explore, ingest, embed) and prints the
// latency and cost a user of the service sees, or, with -trace 1, the
// same op stream split into per-layer spans. See README.md beside this
// file for the workloads, the metrics and how they relate.
//
// Usage (from the root of a checkout; run.sh builds both binaries):
//
//	bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// full report (every route, workload properties, environment).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

const (
	// setupRepeats is how many times a run sets up a fresh server;
	// setup_s is the median and the last server is measured.
	setupRepeats = 5
	// A warm-up of the workload's traffic precedes every measured
	// window, so heaps, connections and caches reach their steady state
	// first; it draws from warmupStream onwards. The open loop warms up
	// for warmupSeconds of its fixed-rate schedule; the closed loops for
	// a fixed request count (warmupRequests).
	warmupSeconds = 3
	warmupStream  = 1 << 20
	// maxLateMS bounds the open-loop generator's p99 lateness; a run
	// whose generator fell further behind is invalid.
	maxLateMS = 10.0
)

// errInvalid marks a run whose load generator could not keep its
// schedule: its numbers describe the client, not the server.
var errInvalid = errors.New("invalid run")

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	serverBin string
	workDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: explore, ingest or embed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of each measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.serverBin, "server-bin", "", "discserve binary to spawn")
	flag.StringVar(&o.workDir, "work-dir", ".", "directory for per-run server state (removed afterwards)")
	flag.Parse()
	if o.workload == "" || o.serverBin == "" || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": out.report}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out.result); err != nil {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type output struct {
	report map[string]any
	result result
}

func run(o options) (*output, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	runDir, err := filepath.Abs(filepath.Join(o.workDir, "runs", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	e, err := runEndToEnd(o, w, filepath.Join(runDir, "e2e"))
	if err != nil {
		return nil, err
	}
	out := &output{report: e.report}
	out.result = result{Correct: len(e.fails) == 0, Attempted: e.attempted, Failed: e.failed}
	if o.trace == 0 {
		out.result.Metrics = e.gated
		return out, nil
	}
	t, err := runTrace(o, w, e, filepath.Join(runDir, "trace"))
	if err != nil {
		return nil, err
	}
	out.report["trace"] = t.report
	out.result.Correct = out.result.Correct && len(t.fails) == 0
	out.result.Attempted += t.attempted
	out.result.Failed += t.failed
	out.result.Metrics = t.perLayer
	return out, nil
}

// e2eRun is the outcome of the untraced run against a spawned server.
type e2eRun struct {
	res       *runResult
	gated     metrics
	report    map[string]any
	fails     []string
	attempted int
	failed    int
}

func runEndToEnd(o options, w *workload, dir string) (*e2eRun, error) {
	var setups []float64
	var proc *serverProc
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		p, err := spawn(o.serverBin, filepath.Join(dir, "s"+strconv.Itoa(i)), w)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		c := newClient(p.base)
		err = w.setup(c)
		c.close()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i < setupRepeats-1 {
			p.stop()
			// Deleted now, its unsynced pages are dropped rather than
			// written back during the measured window.
			if err := os.RemoveAll(p.dir); err != nil {
				return nil, err
			}
		} else {
			proc = p
		}
	}
	defer proc.stop()

	m := measure(o, w, proc.base, proc.rssMB, proc.cpuTime, nil)
	res := m.res
	c := newClient(proc.base)
	defer c.close()
	fails, err := checkRun(w, res.samples, res.live, c)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	late := quantile(res.lateMS, 0.99)
	if !w.closed && late > maxLateMS {
		return nil, fmt.Errorf("%w: open-loop generator p99 lateness %.2f ms exceeds %.0f ms", errInvalid, late, maxLateMS)
	}
	e := &e2eRun{res: res, fails: fails}
	e.gated, e.report = summarize(o, w, res, median(setups), fails)
	e.attempted, e.failed = m.counts()
	e.report["setup_runs_s"] = setups
	return e, nil
}

// measured is a run's warm-up and its measured window.
type measured struct {
	res  *runResult
	warm *runResult
}

// counts returns how many requests the window attempted and how many
// failed, or failed a check.
func (m *measured) counts() (attempted, failed int) {
	for _, s := range m.res.samples {
		attempted++
		if !s.ok || s.checkFailed {
			failed++
		}
	}
	return attempted, failed
}

// measure warms the server up (see warmupRequests), calls atWindow (if
// not nil) and then measures one window.
func measure(o options, w *workload, base string, rss func() float64, serverCPU func() time.Duration, atWindow func()) *measured {
	lv := newLive()
	warm := &loadgen{w: w, base: base, seconds: warmupSeconds, requests: warmupRequests(w),
		stream: warmupStream, live: lv, tag: "warm-"}
	m := &measured{warm: warm.run()}
	if atWindow != nil {
		atWindow()
	}
	lg := &loadgen{w: w, base: base, seconds: o.seconds, live: lv, tag: "w-",
		rss: rss, rssAt: rssAt(w), serverCPU: serverCPU}
	m.res = lg.run()
	return m
}

// warmupRequests is the number of requests each closed-loop client sends
// to warm up: a count, not a time, because the server keeps every select
// and zoom result for its whole life. With a timed warm-up a faster
// server would hold more results when server_rss_mb is read. Each is
// about 3 s of traffic when the benchmark is added. The open loop (0
// here) warms up on its fixed-rate schedule, which is a fixed count too.
func warmupRequests(w *workload) int {
	switch w.name {
	case "explore":
		return 150
	case "embed":
		return 50
	default:
		return 0
	}
}

// rssAt fixes the request count at which server_rss_mb stops sampling,
// so a faster server is not charged for the results it stored by
// serving more requests in the same window. Each is below what the
// slowest run seen when the benchmark was added completed in a 15 s
// window; a run that completes fewer samples until the window ends.
func rssAt(w *workload) int64 {
	switch w.name {
	case "explore":
		return 1000
	case "embed":
		return 400
	default:
		// 4.5 s at 400 ops/s: before the first checkpoint, whose
		// transient snapshot buffers put the peak in one of two modes
		// (≈75 or ≈97 MB) depending on when the GC runs.
		return 1800
	}
}

// summarize turns a run into the gated end-to-end metrics and the full
// report. A failed or refused request counts as waiting the whole
// window, so it misses every latency limit.
func summarize(o options, w *workload, res *runResult, setupS float64, fails []string) (metrics, map[string]any) {
	penalty := float64(res.elapsed) / 1e6
	byRoute := map[route][]float64{}
	bytesByRoute := map[route][]float64{}
	failedByRoute := map[route]int{}
	seen := map[string]bool{}
	repeats, keyed := 0, 0
	var attempted, failed, completed, withinSLO, mutations int
	sizes := map[string][]float64{}
	for _, s := range res.samples {
		attempted++
		lat := s.latencyMS()
		if !s.ok || s.checkFailed {
			failed++
			failedByRoute[s.op.route]++
			lat = penalty
		} else if s.op.route != routeCheckpoint {
			completed++
		}
		byRoute[s.op.route] = append(byRoute[s.op.route], lat)
		if s.ok {
			bytesByRoute[s.op.route] = append(bytesByRoute[s.op.route], float64(s.bytes))
		}
		if s.op.route == routeMutate {
			mutations++
			if s.ok && !s.checkFailed && lat <= float64(mutationSLO)/1e6 {
				withinSLO++
			}
		}
		if s.op.route <= routeLocalZoom {
			keyed++
			if seen[s.op.key] {
				repeats++
			}
			seen[s.op.key] = true
		}
		if s.ok && (s.op.route == routeSelect || s.op.route == routeZoom) && w.name == "explore" {
			k := s.op.route.String() + "@" + ftoa(s.op.radius)
			if len(sizes[k]) == 0 {
				sizes[k] = append(sizes[k], float64(s.size))
			}
		}
	}
	rps := float64(completed) / res.elapsed.Seconds()

	// The gated metrics are the ones this shared machine holds steady
	// from run to run. Latencies and closed-loop throughput move several-
	// fold with other tenants' load (see machine_steal_pct), so they are
	// reported below, by route, but not gated. The server's CPU time is
	// not charged for time the hypervisor gave to others.
	gated := metrics{}
	gated.set("setup_s", setupS, "s")
	gated.set("server_cpu_ms_per_req", float64(res.serverCPU)/1e6/float64(max(completed, 1)), "ms")
	gated.set("server_rss_mb", res.rssMB, "MB")

	// Every end-to-end metric by route name; a route the
	// workload does not send reports null.
	named := map[string]any{}
	put := func(name string, v float64, unit string, ok bool) {
		if ok {
			named[name] = metric{Value: v, Unit: unit}
		} else {
			named[name] = nil
		}
	}
	put("setup_s", setupS, "s", true)
	put("throughput_rps", rps, "1/s", true)
	put("failed_pct", 100*float64(failed)/float64(max(attempted, 1)), "%", true)
	for _, r := range []route{routeSelect, routeZoom, routeLocalZoom, routeMutate, routeSelection} {
		xs := byRoute[r]
		put(r.String()+"_p50_ms", quantile(xs, 0.5), "ms", len(xs) > 0)
		put(r.String()+"_p99_ms", quantile(xs, 0.99), "ms", len(xs) > 0)
	}
	put("mutate_within_slo_pct", 100*float64(withinSLO)/float64(max(mutations, 1)), "%", mutations > 0)
	put("server_rss_mb", res.rssMB, "MB", true)

	routes := map[string]any{}
	for r := route(0); r < numRoutes; r++ {
		xs := byRoute[r]
		if len(xs) == 0 {
			continue
		}
		routes[r.String()] = map[string]any{
			"count": len(xs), "failed": failedByRoute[r],
			"p50_ms": quantile(xs, 0.5), "p90_ms": quantile(xs, 0.9), "p99_ms": quantile(xs, 0.99),
			"max_ms": quantile(xs, 1), "mean_response_bytes": mean(bytesByRoute[r]),
			"samples_beyond_p99": len(xs) / 100,
		}
	}
	props := map[string]any{
		"dataset_size":   len(w.points),
		"repeat_share":   float64(repeats) / float64(max(keyed, 1)),
		"selection_size": sizes,
	}
	if w.name == "embed" {
		var sel []float64
		for _, s := range res.samples {
			if s.ok && s.op.route == routeSelect {
				sel = append(sel, float64(s.size))
			}
		}
		props["selection_size"] = map[string]any{
			"radius_range": []float64{embedMinR, embedMaxR},
			"min":          quantile(sel, 0), "median": median(sel), "max": quantile(sel, 1),
		}
	}
	if w.name == "ingest" {
		var sel []float64
		for _, s := range res.samples {
			if s.ok && s.op.route == routeSelection {
				sel = append(sel, float64(s.size))
			}
		}
		props["selection_size"] = map[string]any{"radius": ingestRadius, "median": median(sel)}
		props["acknowledged_inserts"] = len(res.live.inserted)
		props["acknowledged_deletes"] = len(res.live.deleted)
	}
	loop := map[string]any{"kind": "closed", "connections": w.clients}
	if !w.closed {
		loop = map[string]any{"kind": "open", "connections": w.clients, "rate_ops_per_s": w.rate,
			"checkpoint_every_s": ingestCheckpoint.Seconds()}
	}
	fsync := "n/a"
	if w.name == "ingest" {
		fsync = ingestFsync
	}
	report := map[string]any{
		"workload": w.name,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"environment": map[string]any{
			"nproc": numCPU(), "gomaxprocs_client": runtime.GOMAXPROCS(0), "gomaxprocs_server": numCPU(),
			"go_version": runtime.Version(), "fsync": fsync,
		},
		"loop":       loop,
		"metrics":    named,
		"routes":     routes,
		"properties": props,
		"loadgen": map[string]any{
			"late_ms_p50": quantile(res.lateMS, 0.5), "late_ms_p99": quantile(res.lateMS, 0.99), "cpu_pct": res.cpuPct, "valid": true,
			"machine_steal_pct":    res.stealPct,
			"rss_read_at_requests": rssAt(w),
		},
		"checks": map[string]any{"failures": fails},
	}
	return gated, report
}
