package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/telemetry"
)

// call sends one request straight to h and returns status and body.
func call(h http.Handler, method, path, body string) (int, []byte) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

// mustCall is call that fails the test on an unexpected status.
func mustCall(t *testing.T, h http.Handler, method, path, body string, want int) []byte {
	t.Helper()
	code, b := call(h, method, path, body)
	if code != want {
		t.Fatalf("%s %s %s: status %d, want %d: %s", method, path, body, code, want, b)
	}
	return b
}

func randomPoints(n int, seed uint64) []disc.Point {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	pts := make([]disc.Point, n)
	for i := range pts {
		pts[i] = disc.Point{rng.Float64(), rng.Float64()}
	}
	return pts
}

func createBody(name string, pts []disc.Point, labels []string) string {
	b, _ := json.Marshal(map[string]any{"name": name, "points": pts, "labels": labels})
	return string(b)
}

func radiusJSON(r float64) string { return fmt.Sprintf(`{"radius":%v}`, r) }

// held returns the bytes and entry count currently cached.
func (c *resultCache) held() (int64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.entries)
}

// testCacheStats is a private registry's cache series, so a test reads
// exact counts whatever other servers in the process do.
func testCacheStats() cacheStats { return newCacheStats(telemetry.NewRegistry()) }

// concurrentOp is one request of the concurrency test with the answer a
// sequential reference Diversifier gives it.
type concurrentOp struct {
	method, path, body string
	status             int
	want               any // *resultBody or *localZoomBody
}

// referenceOps computes, on a fresh sequential Diversifier, the expected
// answer of every select, zoom, local zoom and result fetch of one
// dataset.
func referenceOps(t *testing.T, name string, pts []disc.Point, labels []string) []concurrentOp {
	t.Helper()
	ref, err := disc.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	body := func(l lineage, res *disc.Result) *resultBody {
		ids := res.SortedIDs()
		b := &resultBody{ID: l.id(), Dataset: name, Radius: res.Radius(), Algorithm: res.Algorithm(),
			Size: res.Size(), IDs: ids, Accesses: res.Accesses()}
		for _, id := range ids {
			b.Labels = append(b.Labels, labels[id])
		}
		return b
	}
	var ops []concurrentOp
	for _, alg := range []string{"greedy", "lazy-white"} {
		code, _ := algorithmCode(alg)
		for _, r := range []float64{0.06, 0.1} {
			sel, err := ref.Select(r, disc.WithAlgorithm(algorithms[code].alg))
			if err != nil {
				t.Fatal(err)
			}
			l := lineage{dataset: name, alg: code, radii: []float64{r}}
			ops = append(ops,
				concurrentOp{"POST", "/v1/datasets/" + name + "/select", fmt.Sprintf(`{"radius":%v,"algorithm":%q}`, r, alg), 201, body(l, sel)},
				concurrentOp{"GET", "/v1/results/" + l.id(), "", 200, body(l, sel)})
			for _, zr := range []float64{0.04, 0.14} {
				var z *disc.Result
				if zr < r {
					z, err = ref.ZoomIn(sel, zr)
				} else {
					z, err = ref.ZoomOut(sel, zr, disc.ZoomOutGreedyLargest)
				}
				if err != nil {
					t.Fatal(err)
				}
				zl := l.zoom(zr)
				ops = append(ops,
					concurrentOp{"POST", "/v1/results/" + l.id() + "/zoom", radiusJSON(zr), 201, body(zl, z)},
					concurrentOp{"GET", "/v1/results/" + zl.id(), "", 200, body(zl, z)})
			}
			for _, c := range sel.SortedIDs()[:3] {
				for _, lr := range []float64{0.03, 0.16} {
					var lz *disc.LocalZoom
					if lr < r {
						lz, err = ref.LocalZoomIn(sel, c, lr)
					} else {
						lz, err = ref.LocalZoomOut(sel, c, lr)
					}
					if err != nil {
						t.Fatal(err)
					}
					want := &localZoomBody{Center: lz.Center, LocalRadius: lz.LocalRadius, RegionSize: len(lz.Region),
						Added: lz.Added, Removed: lz.Removed, Representatives: lz.Representatives}
					for _, id := range lz.Representatives {
						want.Labels = append(want.Labels, labels[id])
					}
					ops = append(ops, concurrentOp{"POST", "/v1/results/" + l.id() + "/localzoom",
						fmt.Sprintf(`{"center":%d,"radius":%v}`, c, lr), 200, want})
				}
			}
		}
	}
	return ops
}

// TestConcurrentBatchMatchesSequentialReference drives select, zoom,
// localzoom and result fetches over two datasets from many goroutines
// (run it under -race). Every answer must equal the sequential
// reference's, accesses included; a second pass on a one-entry cache
// forces the same requests through eviction and lineage recompute.
func TestConcurrentBatchMatchesSequentialReference(t *testing.T) {
	for _, budget := range []int64{resultCacheBudget, 1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			s := New()
			s.cache = newResultCache(budget, testCacheStats())
			h := s.Handler()
			var ops []concurrentOp
			for i, name := range []string{"alpha", "beta"} {
				pts := randomPoints(250+50*i, uint64(i+1))
				labels := make([]string, len(pts))
				for j := range labels {
					labels[j] = fmt.Sprintf("%s-%d", name, j)
				}
				mustCall(t, h, "POST", "/v1/datasets", createBody(name, pts, labels), 201)
				ops = append(ops, referenceOps(t, name, pts, labels)...)
			}
			const workers, perWorker = 8, 60
			var wg sync.WaitGroup
			errs := make(chan error, workers*perWorker)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(g), 7))
					for i := 0; i < perWorker; i++ {
						op := ops[rng.IntN(len(ops))]
						code, b := call(h, op.method, op.path, op.body)
						if code != op.status {
							errs <- fmt.Errorf("%s %s %s: status %d: %s", op.method, op.path, op.body, code, b)
							continue
						}
						got := reflect.New(reflect.TypeOf(op.want).Elem()).Interface()
						if err := json.Unmarshal(b, got); err != nil {
							errs <- err
							continue
						}
						if !reflect.DeepEqual(got, op.want) {
							errs <- fmt.Errorf("%s %s %s:\n got %+v\nwant %+v", op.method, op.path, op.body, got, op.want)
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestCacheEvictionRecomputesIdentically evicts a result and checks
// that fetching, zooming and local-zooming it answer byte-identically
// to before, then that the cache never holds more than its budget.
func TestCacheEvictionRecomputesIdentically(t *testing.T) {
	pts := randomPoints(80, 3)
	s := New()
	// Room for a few results of this dataset, no more.
	budget := int64(4 * (entryOverhead + 9*len(pts) + 8*len(pts)))
	stats := testCacheStats()
	s.cache = newResultCache(budget, stats)
	h := s.Handler()
	mustCall(t, h, "POST", "/v1/datasets", createBody("d", pts, nil), 201)

	var sel resultBody
	selBody := mustCall(t, h, "POST", "/v1/datasets/d/select", radiusJSON(0.2), 201)
	if err := json.Unmarshal(selBody, &sel); err != nil {
		t.Fatal(err)
	}
	get := func() []byte { return mustCall(t, h, "GET", "/v1/results/"+sel.ID, "", 200) }
	zoom := func() []byte { return mustCall(t, h, "POST", "/v1/results/"+sel.ID+"/zoom", radiusJSON(0.1), 201) }
	lzBody := fmt.Sprintf(`{"center":%d,"radius":0.1}`, sel.IDs[0])
	localZoom := func() []byte { return mustCall(t, h, "POST", "/v1/results/"+sel.ID+"/localzoom", lzBody, 200) }
	want := [][]byte{get(), zoom(), localZoom()}
	if !bytes.Equal(want[0], selBody) {
		t.Fatalf("fetch differs from select:\n%s\n%s", want[0], selBody)
	}

	next := 0.3
	evict := func() {
		t.Helper()
		for {
			s.cache.mu.Lock()
			_, held := s.cache.entries[sel.ID]
			s.cache.mu.Unlock()
			if !held {
				return
			}
			mustCall(t, h, "POST", "/v1/datasets/d/select", radiusJSON(next), 201)
			next += 0.01
		}
	}
	for i, f := range []func() []byte{get, zoom, localZoom} {
		evict()
		if got := f(); !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d after eviction:\n got %s\nwant %s", i, got, want[i])
		}
	}

	// Many distinct radii: the held bytes never exceed the budget.
	for i := 0; i < 10000; i++ {
		mustCall(t, h, "POST", "/v1/datasets/d/select", radiusJSON(0.05+float64(i)*1e-5), 201)
		held, entries := s.cache.held()
		if held > budget || held < 0 {
			t.Fatalf("after %d selects the cache holds %d bytes, budget %d", i+1, held, budget)
		}
		if int64(entries) != stats.entries.Value() || held != stats.bytes.Value() {
			t.Fatalf("gauges %d entries / %d bytes, cache %d / %d", stats.entries.Value(), stats.bytes.Value(), entries, held)
		}
	}
	if stats.evictions.Value() < 10000-uint64(budget/(entryOverhead+9*int64(len(pts)))) {
		t.Fatalf("only %d evictions", stats.evictions.Value())
	}
}

// TestEvictedAnswersIgnoreRadiusHistory evicts answers of a cosine
// float32 dataset while selects at other radii — wider ones first — run
// in between, and checks that fetching a select and zooming it in and
// out answer byte-identically to before, access counts included. A
// zoom is evicted while its parent stays cached, so it is recomputed on
// whatever coverage graph the interleaved selects left behind; its
// answer must not depend on that.
func TestEvictedAnswersIgnoreRadiusHistory(t *testing.T) {
	ds, err := dataset.Sphere(400, 64, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	budget := int64(4 * (entryOverhead + 9*len(ds.Points) + 8*len(ds.Points)))
	s.cache = newResultCache(budget, testCacheStats())
	h := s.Handler()
	create, _ := json.Marshal(map[string]any{"name": "e", "metric": "cosine", "precision": "float32", "points": ds.Points})
	mustCall(t, h, "POST", "/v1/datasets", string(create), 201)

	var sel resultBody
	if err := json.Unmarshal(mustCall(t, h, "POST", "/v1/datasets/e/select", radiusJSON(0.1), 201), &sel); err != nil {
		t.Fatal(err)
	}
	held := func(id string) bool {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		_, ok := s.cache.entries[id]
		return ok
	}
	get := func() []byte { return mustCall(t, h, "GET", "/v1/results/"+sel.ID, "", 200) }
	zoom := func(r float64) func() []byte {
		return func() []byte { return mustCall(t, h, "POST", "/v1/results/"+sel.ID+"/zoom", radiusJSON(r), 201) }
	}
	reqs := []func() []byte{get, zoom(0.15), zoom(0.07)}
	want := make([][]byte, len(reqs))
	ids := make([]string, len(reqs))
	for i, f := range reqs {
		want[i] = f()
		var b resultBody
		if err := json.Unmarshal(want[i], &b); err != nil {
			t.Fatal(err)
		}
		ids[i] = b.ID
	}

	next := 0.25
	for i, f := range reqs {
		// At least one select at another radius runs between the
		// eviction and the recomputation.
		for first := true; first || held(ids[i]); first = false {
			if i > 0 {
				get() // keep the parent cached: only the zoom is recomputed
			}
			mustCall(t, h, "POST", "/v1/datasets/e/select", radiusJSON(next), 201)
			next -= 0.01
		}
		if i > 0 && !held(sel.ID) {
			t.Fatal("the zoom's parent was evicted too")
		}
		if got := f(); !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d after eviction:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestCacheCoalescesConcurrentMisses checks that K concurrent misses on
// one key compute once, that errors and panics release the flight and
// are never cached, and that the same holds over HTTP.
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	const k = 16
	stats := testCacheStats()
	c := newResultCache(1<<20, stats)

	var computes atomic.Int32
	release := make(chan struct{})
	compute := func() (*cacheEntry, error) {
		computes.Add(1)
		<-release
		return newBodyEntry([]byte("answer")), nil
	}
	got := make([]*cacheEntry, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.get("key", compute)
			if err != nil {
				t.Error(err)
			}
			got[i] = e
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for (computes.Load() == 0 || stats.coalesced.Value() < k-1) && time.Now().Before(deadline) {
		runtime.Gosched() // until one request computes and the rest wait on it
	}
	close(release)
	wg.Wait()
	if computes.Load() != 1 || stats.misses.Value() != 1 || stats.coalesced.Value() != k-1 {
		t.Fatalf("%d computes, %d misses, %d coalesced; want 1, 1, %d", computes.Load(), stats.misses.Value(), stats.coalesced.Value(), k-1)
	}
	for _, e := range got {
		if e != got[0] {
			t.Fatal("coalesced requests got different entries")
		}
	}
	if e, _ := c.get("key", compute); e != got[0] || stats.hits.Value() != 1 {
		t.Fatal("a later request was not a hit")
	}

	// Errors go to every waiter and are not cached.
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.get("err", func() (*cacheEntry, error) { return nil, boom }); err != boom {
			t.Fatalf("err = %v", err)
		}
	}
	if _, n := c.held(); n != 1 {
		t.Fatalf("%d entries cached, want 1", n)
	}

	// A panicking compute releases its flight: waiters get an error and
	// the next request computes again.
	entered := make(chan struct{})
	waiterErr := make(chan error)
	go func() {
		defer func() { _ = recover() }()
		_, _ = c.get("panic", func() (*cacheEntry, error) {
			close(entered)
			for stats.coalesced.Value() < k {
				runtime.Gosched() // until the waiter below joins the flight
			}
			panic("compute failed")
		})
	}()
	<-entered
	go func() {
		_, err := c.get("panic", compute)
		waiterErr <- err
	}()
	if err := <-waiterErr; !errors.Is(err, errComputePanicked) {
		t.Fatalf("waiter err = %v", err)
	}
	if e, err := c.get("panic", func() (*cacheEntry, error) { return newBodyEntry(nil), nil }); err != nil || e == nil {
		t.Fatalf("recompute after panic: %v", err)
	}

	// Over HTTP: K identical concurrent selects compute once and answer
	// identically.
	s := New()
	hstats := testCacheStats()
	s.cache = newResultCache(resultCacheBudget, hstats)
	h := s.Handler()
	mustCall(t, h, "POST", "/v1/datasets", createBody("d", randomPoints(2000, 9), nil), 201)
	bodies := make([][]byte, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = call(h, "POST", "/v1/datasets/d/select", radiusJSON(0.01))
		}(i)
	}
	wg.Wait()
	for _, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("answers differ:\n%s\n%s", b, bodies[0])
		}
	}
	if m := hstats.misses.Value(); m != 1 || hstats.hits.Value()+hstats.coalesced.Value() != k-1 {
		t.Fatalf("%d misses, %d hits, %d coalesced for %d identical selects", m, hstats.hits.Value(), hstats.coalesced.Value(), k)
	}
}

func TestResultIDs(t *testing.T) {
	s := New()
	h := s.Handler()
	pts := randomPoints(120, 4)
	const odd = "a b%2F?#é~"
	for _, name := range []string{"d", odd} {
		mustCall(t, h, "POST", "/v1/datasets", createBody(name, pts, nil), 201)
	}
	sel := func(name, body string) resultBody {
		var r resultBody
		path := "/v1/datasets/" + strings.NewReplacer("%", "%25", "?", "%3F", "#", "%23", " ", "%20").Replace(name) + "/select"
		if err := json.Unmarshal(mustCall(t, h, "POST", path, body, 201), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Identical requests get identical IDs; -0 is 0; the algorithm's
	// default spelling is "greedy".
	a, b := sel("d", `{"radius":0.1}`), sel("d", `{"radius":0.1,"algorithm":"greedy"}`)
	if a.ID != b.ID {
		t.Fatalf("identical selects got %q and %q", a.ID, b.ID)
	}
	if z, nz := sel("d", `{"radius":0}`), sel("d", `{"radius":-0}`); z.ID != nz.ID {
		t.Fatalf("0 and -0 got %q and %q", z.ID, nz.ID)
	}
	// IDs are path-safe and decode to their lineage, whatever the
	// dataset name holds.
	o := sel(odd, `{"radius":0.1}`)
	for _, id := range []string{a.ID, o.ID} {
		if strings.Trim(id, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_") != "" {
			t.Fatalf("id %q is not path-safe", id)
		}
	}
	if l, err := parseResultID(o.ID); err != nil || l.dataset != odd || l.radius() != 0.1 || len(l.radii) != 1 {
		t.Fatalf("parse %q = %+v, %v", o.ID, l, err)
	}
	if got := mustCall(t, h, "GET", "/v1/results/"+o.ID, "", 200); !strings.Contains(string(got), o.ID) {
		t.Fatalf("fetch by odd-name id: %s", got)
	}

	// An ID this server never issued is answered from its lineage, as
	// the zooms that spell it answer later.
	fresh := lineage{dataset: "d", radii: []float64{0.1, 0.05, 0.2}}.id()
	got := mustCall(t, h, "GET", "/v1/results/"+fresh, "", 200)
	var mid resultBody
	if err := json.Unmarshal(mustCall(t, h, "POST", "/v1/results/"+a.ID+"/zoom", radiusJSON(0.05), 201), &mid); err != nil {
		t.Fatal(err)
	}
	if want := mustCall(t, h, "POST", "/v1/results/"+mid.ID+"/zoom", radiusJSON(0.2), 201); !bytes.Equal(got, want) {
		t.Fatalf("never-seen id %s answered\n%s\nthe zoom chain answers\n%s", fresh, got, want)
	}

	// Malformed, over-long, non-canonical and unknown-dataset IDs 404 on
	// every result route.
	negZero := base64.RawURLEncoding.EncodeToString(append([]byte{resultIDVersion, 1, 'd', 0}, 0x80, 0, 0, 0, 0, 0, 0, 0))
	valid := lineage{dataset: "d", radii: []float64{0.1}}.id()
	bad := []string{
		"r999",
		"r1",
		"!!",
		strings.Repeat("A", maxResultIDLen+1),
		negZero,
		valid + "A", // trailing garbage
		lineage{dataset: "nope", radii: []float64{0.1}}.id(),            // unknown dataset
		lineage{dataset: "d", radii: []float64{0.1, 0.1}}.id(),          // zoom to its own radius
		lineage{dataset: "d", alg: 5, radii: []float64{0.1, 0.05}}.id(), // zoomed coverage-only
		lineage{dataset: "d", alg: len(algorithms), radii: []float64{0.1}}.id(),
		lineage{dataset: "d", radii: []float64{math.Inf(1)}}.id(),
	}
	for _, id := range bad {
		mustCall(t, h, "GET", "/v1/results/"+id, "", 404)
		mustCall(t, h, "POST", "/v1/results/"+id+"/zoom", radiusJSON(0.05), 404)
		mustCall(t, h, "POST", "/v1/results/"+id+"/localzoom", `{"center":0,"radius":0.05}`, 404)
	}

	// A zoom chain past the ID cap is refused.
	id := a.ID
	for i := 0; ; i++ {
		r := 0.05
		if i%2 == 1 {
			r = 0.1
		}
		code, body := call(h, "POST", "/v1/results/"+id+"/zoom", radiusJSON(r))
		if code == 400 {
			if !strings.Contains(string(body), "exceed") {
				t.Fatalf("refusal: %s", body)
			}
			break
		}
		if code != 201 || i > maxResultIDLen {
			t.Fatalf("zoom %d: status %d: %s", i, code, body)
		}
		var z resultBody
		if err := json.Unmarshal(body, &z); err != nil {
			t.Fatal(err)
		}
		id = z.ID
		if len(id) > maxResultIDLen {
			t.Fatalf("issued an id of %d bytes", len(id))
		}
	}
}

// TestStrictRequestDecoding checks every batch and live route that
// reads a body: a misspelt field, a second JSON value or trailing
// garbage is a 400, while the bodies the load generators send pass.
func TestStrictRequestDecoding(t *testing.T) {
	s := New()
	h := s.Handler()
	mustCall(t, h, "POST", "/v1/datasets", `{"name":"d","points":[[0,0],[0.5,0.5],[1,1]]}`, 201)
	var sel resultBody
	if err := json.Unmarshal(mustCall(t, h, "POST", "/v1/datasets/d/select", `{"radius":0.2}`, 201), &sel); err != nil {
		t.Fatal(err)
	}
	mustCall(t, h, "POST", "/v1/live", `{"name":"l","radius":0.1,"points":[[0,0],[0.5,0.5]]}`, 201)
	res := "/v1/results/" + sel.ID

	cases := []struct {
		path, ok string
		status   int
		bad      []string
	}{
		{"/v1/datasets", `{"name":"e","metric":"cosine","precision":"float32","points":[[1,0],[0,1]]}`, 201,
			[]string{`{"name":"f","points":[[0,0]],"pionts":[]}`, `{"name":"f","points":[[0,0]]} {}`}},
		{"/v1/datasets/d/select", `{"radius":0.3}`, 201,
			[]string{`{"r":0.1}`, `{"radius":0.1,"algo":"basic"}`, `{"radius":0.1}{"radius":0.2}`, `{"radius":0.1} x`}},
		{res + "/zoom", `{"radius":0.1}`, 201,
			[]string{`{"r":0.1}`, `{"radius":0.1}]`}},
		{res + "/localzoom", fmt.Sprintf(`{"center":%d,"radius":0.1}`, sel.IDs[0]), 200,
			[]string{fmt.Sprintf(`{"centre":%d,"radius":0.1}`, sel.IDs[0]), `{"center":0,"radius":0.1}}`}},
		{"/v1/live", `{"name":"m","metric":"euclidean","radius":0.1,"points":[[0,0]]}`, 201,
			[]string{`{"name":"n","r":0.1}`, `{"name":"n","radius":0.1} null`}},
		{"/v1/live/l/insert", `{"point":[0.2,0.3],"flush":true}`, 201,
			[]string{`{"point":[0.2,0.3],"flsh":true}`, `{"point":[0.2,0.3]}{}`}},
		{"/v1/live/l/delete", `{"id":0,"flush":true}`, 200,
			[]string{`{"ID":0,"fluhs":true}`, `{"id":1} 1`}},
	}
	for _, c := range cases {
		for _, body := range c.bad {
			mustCall(t, h, "POST", c.path, body, 400)
		}
		// Trailing whitespace, as json.Encoder writes it, is fine.
		mustCall(t, h, "POST", c.path, c.ok+"\n", c.status)
	}
}
