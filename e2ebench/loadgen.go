package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one connection to the server: its transport keeps at most
// one connection open, so the number of clients is the connection count.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request with the given X-Request-Id and returns the
// status and body. A status other than want is an error.
func (c *client) call(method, path string, body []byte, reqID string, want int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != want {
		return resp.StatusCode, out, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return resp.StatusCode, out, nil
}

type resultResponse struct {
	ID  string `json:"id"`
	IDs []int  `json:"ids"`
}

type localZoomResponse struct {
	Representatives []int `json:"representatives"`
}

type mutationResponse struct {
	ID int `json:"id"`
}

type selectionResponse struct {
	IDs []int `json:"ids"`
}

// sample is one completed (or failed) request.
type sample struct {
	reqID string
	op    op
	// due, start and end are offsets from the start of the measured
	// window; due equals start in a closed loop.
	due, start, end time.Duration
	ok              bool
	checkFailed     bool // the answer failed an output check
	err             string
	bytes           int
	size            int    // selection size in the answer
	hash            uint64 // of the answer's ids, for repeat checks
	ids             []int  // select and zoom answers, for the Definition 1 check
	resultID        string // select/zoom: the stored result's id
	liveID          int    // mutate: the id inserted or deleted
}

// latencyMS is what the user waited: from due time to completion.
func (s *sample) latencyMS() float64 { return float64(s.end-s.due) / 1e6 }

// live tracks the ingest generator's acknowledged inserts. Deletes draw
// their victims from the inserts placed next to a live point: removing
// one splits or shrinks a real component, the repair deletions need.
type live struct {
	mu       sync.Mutex
	victims  []int
	inserted map[int][]float64
	deleted  map[int]bool
}

func newLive() *live { return &live{inserted: map[int][]float64{}, deleted: map[int]bool{}} }

func (l *live) add(id int, p []float64, victim bool) {
	l.mu.Lock()
	if victim {
		l.victims = append(l.victims, id)
	}
	l.inserted[id] = p
	l.mu.Unlock()
}

// take removes and returns a victim chosen by pick, waiting briefly for
// an in-flight insert when none is acknowledged yet.
func (l *live) take(pick uint64) (int, bool) {
	for i := 0; i < 1000; i++ {
		l.mu.Lock()
		if n := len(l.victims); n > 0 {
			k := int(pick % uint64(n))
			id := l.victims[k]
			l.victims[k] = l.victims[n-1]
			l.victims = l.victims[:n-1]
			l.mu.Unlock()
			return id, true
		}
		l.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	return 0, false
}

func (l *live) markDeleted(id int) {
	l.mu.Lock()
	l.deleted[id] = true
	l.mu.Unlock()
}

// send issues o over c and fills in the sample.
func send(c *client, w *workload, o op, lv *live, s *sample) {
	var method, path string
	var body []byte
	want := 200
	switch o.route {
	case routeSelect:
		method, path, body, want = "POST", "/v1/datasets/"+w.name+"/select", radiusBody(o.radius), 201
	case routeZoom:
		method, path, body, want = "POST", "/v1/results/"+o.base+"/zoom", radiusBody(o.radius), 201
	case routeLocalZoom:
		method, path = "POST", "/v1/results/"+o.base+"/localzoom"
		body = []byte(`{"center":` + strconv.Itoa(o.center) + `,"radius":` + ftoa(o.radius) + `}`)
	case routeMutate:
		method = "POST"
		if o.insert {
			path, want = "/v1/live/"+w.name+"/insert", 201
			body, _ = json.Marshal(map[string]any{"point": o.point, "flush": true})
		} else {
			id, ok := lv.take(o.pick)
			if !ok {
				s.err = "no acknowledged insert to delete"
				return
			}
			s.liveID = id
			path = "/v1/live/" + w.name + "/delete"
			body = []byte(`{"id":` + strconv.Itoa(id) + `,"flush":true}`)
		}
	case routeSelection:
		method, path = "GET", "/v1/live/"+w.name+"/selection"
	case routeCheckpoint:
		method, path, want = "POST", "/v1/live/"+w.name+"/snapshot", 201
	}
	_, resp, err := c.call(method, path, body, s.reqID, want)
	s.bytes = len(resp)
	if err != nil {
		s.err = err.Error()
		return
	}
	var ids []int
	switch o.route {
	case routeSelect, routeZoom:
		var r resultResponse
		err = json.Unmarshal(resp, &r)
		ids, s.resultID = r.IDs, r.ID
	case routeLocalZoom:
		var r localZoomResponse
		err = json.Unmarshal(resp, &r)
		ids = r.Representatives
	case routeSelection:
		// Only the size: decoding every id would cost the client more
		// CPU than the server spends encoding them, on the same two CPUs.
		s.size, err = leadingSize(resp)
		s.ok = err == nil
		if err != nil {
			s.err = "decode: " + err.Error()
		}
		return
	case routeMutate:
		if o.insert {
			var r mutationResponse
			err = json.Unmarshal(resp, &r)
			s.liveID = r.ID
			if err == nil {
				lv.add(r.ID, o.point, o.key == "insert-near")
			}
		} else {
			lv.markDeleted(s.liveID)
		}
	}
	if err != nil {
		s.err = "decode: " + err.Error()
		return
	}
	s.size, s.hash = len(ids), hashIDs(ids)
	if o.route == routeSelect || o.route == routeZoom {
		s.ids = ids
	}
	s.ok = true
}

// leadingSize reads the "size" field that opens a live selection body
// without decoding the ids after it.
func leadingSize(body []byte) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var size int
	for _, want := range []string{"{", "size"} {
		tok, err := dec.Token()
		if err != nil {
			return 0, err
		}
		if fmt.Sprint(tok) != want {
			return 0, fmt.Errorf("selection body starts with %v, want %q", tok, want)
		}
	}
	if err := dec.Decode(&size); err != nil {
		return 0, err
	}
	return size, nil
}

func hashIDs(ids []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		v := uint64(id)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// runResult is one measured window of a workload.
type runResult struct {
	samples []*sample
	// elapsed is the time until the window's last request returned.
	elapsed time.Duration
	// lateMS is how late the open-loop generator's timer fired for each
	// op sent on an idle connection, in ms; empty for a closed loop.
	lateMS []float64
	// cpuPct is the client process's CPU time as a share of all CPUs
	// over the window.
	cpuPct float64
	// serverCPU is the server's CPU time over the window.
	serverCPU time.Duration
	// stealPct is the share of the machine's CPU time the hypervisor
	// gave to others during the window: interference the run cannot
	// control.
	stealPct float64
	// rssMB is the server's largest sampled RSS up to rssAt completed
	// requests (or the end of the window, if fewer completed).
	rssMB float64
	live  *live
}

// loadgen drives a workload against a server for a fixed window.
type loadgen struct {
	w       *workload
	base    string
	seconds float64
	// requests, when above 0, ends a closed loop after that many
	// requests per client instead of after seconds.
	requests int
	// stream selects the op streams (runs with different streams send
	// different ops from the same seed); live carries the acknowledged
	// inserts across runs against one server; tag prefixes every request
	// id, so ids stay unique across runs.
	stream uint64
	live   *live
	tag    string
	// rss reads the server's resident set size in MB (nil: not
	// measured); rssAt is the request count sampling stops at.
	rss   func() float64
	rssAt int64
	// serverCPU reads the server's CPU time (nil: not measured).
	serverCPU func() time.Duration
}

const rssEvery = 20 * time.Millisecond

// stealTicks reads the machine's CPU time stolen by the hypervisor and
// its total CPU time, in clock ticks (0, 0 where /proc/stat is missing).
func stealTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (lg *loadgen) run() *runResult {
	clients := make([]*client, lg.w.clients)
	for i := range clients {
		clients[i] = newClient(lg.base)
		defer clients[i].close()
	}
	res := &runResult{live: lg.live}
	// The server's RSS is sampled every rssEvery from the start of the
	// window until rssAt requests have completed; server_rss_mb is the
	// largest sample. Set-up's transient peak (decoding the seed points)
	// is outside the window, so it does not mask the window's growth.
	var done atomic.Int64
	stopRSS := make(chan struct{})
	var stopOnce sync.Once
	stopSampling := func() { stopOnce.Do(func() { close(stopRSS) }) }
	var rssWG sync.WaitGroup
	if lg.rss != nil {
		rssWG.Add(1)
		go func() {
			defer rssWG.Done()
			tick := time.NewTicker(rssEvery)
			defer tick.Stop()
			for {
				res.rssMB = max(res.rssMB, lg.rss())
				select {
				case <-stopRSS:
					return
				case <-tick.C:
				}
			}
		}()
	}
	complete := func() {
		if done.Add(1) == lg.rssAt {
			stopSampling()
		}
	}
	window := time.Duration(lg.seconds * float64(time.Second))
	cpu0 := cpuTime()
	var srv0 time.Duration
	if lg.serverCPU != nil {
		srv0 = lg.serverCPU()
	}
	steal0, total0 := stealTicks()
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	if lg.w.closed {
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				g := lg.w.generator(lg.stream + uint64(i))
				var local []*sample
				more := func(seq int) bool {
					if lg.requests > 0 {
						return seq < lg.requests
					}
					return time.Since(start) < window
				}
				for seq := 0; more(seq); seq++ {
					o := g.next()
					s := &sample{reqID: lg.tag + "c" + strconv.Itoa(i) + "-" + strconv.Itoa(seq), op: o}
					s.start = time.Since(start)
					s.due = s.start
					send(c, lg.w, o, res.live, s)
					s.end = time.Since(start)
					g.observe(o, s.resultID)
					local = append(local, s)
					complete()
				}
				mu.Lock()
				res.samples = append(res.samples, local...)
				mu.Unlock()
			}(i, c)
		}
		wg.Wait()
	} else {
		lg.runOpen(clients, start, window, res, complete)
	}
	res.elapsed = time.Since(start)
	res.cpuPct = 100 * float64(cpuTime()-cpu0) / float64(res.elapsed) / float64(numCPU())
	if lg.serverCPU != nil {
		res.serverCPU = lg.serverCPU() - srv0
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		res.stealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	stopSampling()
	rssWG.Wait()
	return res
}

// runOpen sends the workload's schedule open loop. Connection k sends
// ops k, k+c, k+2c, ... of the schedule (c connections), each at its due
// time or, when the previous one is still out, as soon as it returns.
// Latency counts from the due time, so the wait a slow response imposes
// on later ops counts; only when the connection was idle and the timer
// itself fired late does it count from the send. That timer slop is
// recorded as generator lateness instead.
func (lg *loadgen) runOpen(clients []*client, start time.Time, window time.Duration, res *runResult, complete func()) {
	res.samples = lg.w.schedule(window, lg.stream)
	for _, s := range res.samples {
		s.reqID = lg.tag + s.reqID
	}
	late := make([][]float64, len(clients))
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for i := k; i < len(res.samples); i += len(clients) {
				s := res.samples[i]
				s.start = time.Since(start)
				if d := s.due - s.start; d > 0 {
					time.Sleep(d)
					s.start = time.Since(start)
					late[k] = append(late[k], float64(s.start-s.due)/1e6)
					// The timer's own slop is the client's, not a wait the
					// server imposed: latency counts from the send.
					s.due = s.start
				}
				send(c, lg.w, s.op, res.live, s)
				s.end = time.Since(start)
				complete()
			}
		}(k, c)
	}
	wg.Wait()
	for _, l := range late {
		res.lateMS = append(res.lateMS, l...)
	}
}
