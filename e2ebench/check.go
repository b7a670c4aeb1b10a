package main

import (
	"encoding/json"
	"fmt"
	"sort"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/object"
)

// verifyPerRoute caps the select and zoom answers checked against
// Definition 1 in one run; the first answer for each key is checked
// before any repeat.
const verifyPerRoute = 30

// checkRun checks the run's answers and marks the samples that fail.
// It returns one line per failure.
func checkRun(w *workload, samples []*sample, lv *live, c *client) ([]string, error) {
	var fails []string
	fail := func(s *sample, format string, args ...any) {
		if s != nil {
			s.checkFailed = true
		}
		fails = append(fails, fmt.Sprintf(format, args...))
	}

	// Repeated identical requests must return identical ids. Ingest
	// reads a changing selection, so only batch routes take part.
	first := map[string]*sample{}
	for _, s := range samples {
		if !s.ok || s.op.route > routeLocalZoom {
			continue
		}
		if f, ok := first[s.op.key]; ok {
			if f.hash != s.hash || f.size != s.size {
				fail(s, "%s %s: answer differs from %s", s.reqID, s.op.key, f.reqID)
			}
			continue
		}
		first[s.op.key] = s
	}

	switch w.name {
	case "explore", "embed":
		pts, m, err := checkPoints(w)
		if err != nil {
			return nil, err
		}
		checked := map[route]int{}
		verify := func(s *sample) {
			if checked[s.op.route] >= verifyPerRoute {
				return
			}
			checked[s.op.route]++
			if err := core.CheckDisC(pts, m, s.ids, s.op.radius); err != nil {
				fail(s, "%s %s: not an r-DisC subset: %v", s.reqID, s.op.key, err)
			}
		}
		for _, s := range samples {
			if s.ok && s.op.route <= routeZoom && first[s.op.key] == s {
				verify(s)
			}
		}
		for _, s := range samples {
			if s.ok && s.op.route <= routeZoom && first[s.op.key] != s {
				verify(s)
			}
		}
	case "ingest":
		ok, err := checkLive(w, lv, c)
		if err != nil {
			return nil, err
		}
		if !ok {
			fail(nil, "live selection differs from a from-scratch component-mode select over the surviving points")
		}
	}
	return fails, nil
}

// checkPoints returns the points as the server stores them: float32
// datasets are rounded once at ingest, and Definition 1 holds over the
// rounded coordinates.
func checkPoints(w *workload) ([]object.Point, object.Metric, error) {
	m, err := object.MetricByName(w.metric)
	if err != nil {
		return nil, nil, err
	}
	pts := make([]object.Point, len(w.points))
	for i, p := range w.points {
		pts[i] = object.Point(p)
	}
	if w.prec == "float32" {
		f, err := object.Flatten32(pts, m)
		if err != nil {
			return nil, nil, err
		}
		return f.Points(), m, nil
	}
	return pts, m, nil
}

// checkLive compares the server's live selection with a from-scratch
// component-mode select over the points that survive the run: the seed
// points plus every acknowledged insert not deleted. Every mutation was
// sent with flush, so the selection has converged.
func checkLive(w *workload, lv *live, c *client) (bool, error) {
	_, body, err := c.call("GET", "/v1/live/"+w.name+"/selection", nil, "check-selection", 200)
	if err != nil {
		return false, err
	}
	var got selectionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return false, err
	}
	ids := make([]int, 0, len(w.points)+len(lv.inserted))
	for id := range w.points {
		ids = append(ids, id)
	}
	for id := range lv.inserted {
		if !lv.deleted[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	pts := make([]disc.Point, len(ids))
	for i, id := range ids {
		if id < len(w.points) {
			pts[i] = w.points[id]
		} else {
			pts[i] = lv.inserted[id]
		}
	}
	d, err := disc.New(pts, disc.WithIndex(disc.IndexCoverageGraph))
	if err != nil {
		return false, err
	}
	res, err := d.Select(ingestRadius, disc.WithSelectMode(disc.SelectComponents))
	if err != nil {
		return false, err
	}
	want := make([]int, 0, res.Size())
	for _, i := range res.IDs() {
		want = append(want, ids[i])
	}
	sort.Ints(want)
	sort.Ints(got.IDs)
	if len(want) != len(got.IDs) {
		return false, nil
	}
	for i := range want {
		if want[i] != got.IDs[i] {
			return false, nil
		}
	}
	return true, nil
}
