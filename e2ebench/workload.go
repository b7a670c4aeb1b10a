package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"github.com/discdiversity/disc/internal/dataset"
)

// route is the kind of HTTP request an op sends.
type route int

const (
	routeSelect route = iota
	routeZoom
	routeLocalZoom
	routeMutate
	routeSelection
	routeCheckpoint
	numRoutes
)

var routeNames = [numRoutes]string{"select", "zoom", "localzoom", "mutate", "selection", "checkpoint"}

func (r route) String() string { return routeNames[r] }

// Workload parameters. Each constant is part of the workload's
// identity: changing one makes results incomparable with earlier runs.
const (
	exploreN       = 2000
	explorePinned  = 0.02 // radius of the result zooms start from
	exploreCentres = 16   // distinct localzoom centres, so keys repeat
	exploreClients = 2

	embedN        = 1000
	embedDim      = 128
	embedMinR     = 0.08
	embedMaxR     = 0.2
	embedClients  = 2
	embedClusters = embedN / 64

	ingestN           = 50000
	ingestRadius      = 0.0025
	ingestRate        = 400.0 // ops per second, ≈40% of a 2-client closed-loop probe
	ingestConnections = 2
	ingestInsertShare = 0.7 // of mutations; the rest delete the generator's own inserts
	ingestCheckpoint  = 5 * time.Second
	ingestFsync       = "interval"

	// mutationSLO is the acknowledgement limit mutate_within_slo_pct
	// counts against.
	mutationSLO = 20 * time.Millisecond
)

// datasetSeed draws every workload's dataset: the datasets are
// canonical, and --seed varies only the op stream, so runs with
// different seeds measure the same data under different request orders.
const datasetSeed = 1

// exploreLadder is the select radius ladder; zooms from the pinned
// result go to its neighbouring rungs.
var exploreLadder = []float64{0.01, 0.02, 0.04}

var workloadNames = []string{"explore", "ingest", "embed"}

// op is one request of a workload's stream. Fields a route does not use
// stay zero.
type op struct {
	route  route
	radius float64
	// base is the server result id a zoom or localzoom starts from, and
	// baseRadius that result's radius.
	base       string
	baseRadius float64
	center     int
	insert     bool
	point      []float64
	// pick chooses a delete's victim among the acknowledged inserts not
	// yet deleted when the delete is sent.
	pick uint64
	// key identifies requests whose answers must be identical.
	key string
}

// workload holds one workload's generated inputs and the state its
// setup pins on a server.
type workload struct {
	name    string
	closed  bool // closed loop of clients, else an open loop at rate
	clients int  // connections
	rate    float64
	metric  string
	prec    string
	points  [][]float64
	// seedBody is the JSON body that creates the workload's dataset.
	seedBody []byte
	seed     uint64

	// Set by setup.
	pinnedID string
	centres  []int
}

func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name, seed: seed, metric: "euclidean"}
	var body any
	switch name {
	case "explore":
		ds, err := dataset.Clustered(exploreN, 2, 0, datasetSeed)
		if err != nil {
			return nil, err
		}
		w.closed, w.clients = true, exploreClients
		w.points = coords(ds.Points)
		body = map[string]any{"name": name, "points": w.points}
	case "embed":
		ds, err := dataset.Sphere(embedN, embedDim, embedClusters, datasetSeed)
		if err != nil {
			return nil, err
		}
		w.closed, w.clients = true, embedClients
		w.metric, w.prec = "cosine", "float32"
		w.points = coords(ds.Points)
		body = map[string]any{"name": name, "metric": w.metric, "precision": w.prec, "points": w.points}
	case "ingest":
		ds, err := dataset.Clustered(ingestN, 2, 0, datasetSeed)
		if err != nil {
			return nil, err
		}
		w.clients, w.rate = ingestConnections, ingestRate
		w.points = coords(ds.Points)
		body = map[string]any{"name": name, "radius": ingestRadius, "points": w.points}
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	var err error
	if w.seedBody, err = json.Marshal(body); err != nil {
		return nil, err
	}
	return w, nil
}

func coords[P ~[]float64](pts []P) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64(p)
	}
	return out
}

// setup seeds the workload's dataset on a fresh server and pins the
// state the op stream refers to.
func (w *workload) setup(c *client) error {
	switch w.name {
	case "explore", "embed":
		if _, _, err := c.call("POST", "/v1/datasets", w.seedBody, "setup-create", 201); err != nil {
			return err
		}
		if w.name == "embed" {
			return nil
		}
		_, resp, err := c.call("POST", "/v1/datasets/explore/select", radiusBody(explorePinned), "setup-pin", 201)
		if err != nil {
			return err
		}
		var res resultResponse
		if err := json.Unmarshal(resp, &res); err != nil {
			return fmt.Errorf("pin: %w", err)
		}
		w.pinnedID = res.ID
		// The centres depend only on the seed and the pinned answer, so
		// every server of a run gets the same ones.
		reps := append([]int(nil), res.IDs...)
		sort.Ints(reps)
		rng := rand.New(rand.NewPCG(w.seed, 0xce47))
		rng.Shuffle(len(reps), func(i, j int) { reps[i], reps[j] = reps[j], reps[i] })
		w.centres = reps[:min(exploreCentres, len(reps))]
		return nil
	default: // ingest
		_, _, err := c.call("POST", "/v1/live", w.seedBody, "setup-create", 201)
		return err
	}
}

func radiusBody(r float64) []byte {
	return []byte(`{"radius":` + strconv.FormatFloat(r, 'g', -1, 64) + `}`)
}

// generator draws one connection's op stream from the seed. Mixes come
// from shuffled decks and radii from stratified draws, so every run of a
// workload has the same proportions and only their order and exact
// values depend on the seed.
type generator struct {
	w    *workload
	rng  *rand.Rand
	deck []int
	// Embed: the connection's last select answer, which the next zoom
	// starts from, and the stratified radius streams.
	lastID     string
	lastRadius float64
	selectR    *strata
	zoomR      *strata
	n          int
	// Ingest: near inserts minus deletes drawn so far; a delete is drawn
	// only when enough near inserts precede it to have been acknowledged.
	outstanding int
}

func (w *workload) generator(stream uint64) *generator {
	rng := rand.New(rand.NewPCG(w.seed, 0x9e3779b97f4a7c15^stream))
	return &generator{w: w, rng: rng,
		selectR: &strata{rng: rng, lo: embedMinR, hi: embedMaxR},
		zoomR:   &strata{rng: rng, lo: embedMinR, hi: embedMaxR}}
}

// Deck cards. One explore deck holds 60 ops — select 4 : zoom 3 :
// localzoom 3, every select rung and zoom direction equally often; one
// ingest deck holds 20 mutations — 14 inserts (half next to a live
// point, half uniform) and 6 deletes of earlier inserts next to a live
// point.
const (
	cardSelect        = iota // + rung index
	cardZoom          = 3    // + direction (0 in, 1 out)
	cardLocalZoom     = 5    // + direction
	cardInsertNear    = 7
	cardInsertUniform = 8
	cardDelete        = 9
)

func deck(name string) []int {
	var d []int
	add := func(card, n int) {
		for i := 0; i < n; i++ {
			d = append(d, card)
		}
	}
	if name == "explore" {
		for rung := 0; rung < 3; rung++ {
			add(cardSelect+rung, 8)
		}
		add(cardZoom, 9)
		add(cardZoom+1, 9)
		add(cardLocalZoom, 9)
		add(cardLocalZoom+1, 9)
		return d
	}
	add(cardInsertNear, 7)
	add(cardInsertUniform, 7)
	add(cardDelete, 6)
	return d
}

// draw returns the next card, reshuffling a fresh deck when one runs out.
func (g *generator) draw() int {
	if len(g.deck) == 0 {
		g.deck = deck(g.w.name)
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	c := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	return c
}

// strata draws uniformly from [lo, hi): each run of strataK consecutive
// draws puts one value in each of strataK equal sub-intervals, in
// shuffled order.
type strata struct {
	rng    *rand.Rand
	lo, hi float64
	perm   []int
}

const strataK = 16

func (s *strata) next() float64 {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(strataK)
	}
	j := s.perm[len(s.perm)-1]
	s.perm = s.perm[:len(s.perm)-1]
	return s.lo + (s.hi-s.lo)*(float64(j)+s.rng.Float64())/strataK
}

func (g *generator) next() op {
	g.n++
	rng := g.rng
	switch g.w.name {
	case "explore":
		c := g.draw()
		switch {
		case c < cardZoom:
			r := exploreLadder[c-cardSelect]
			return op{route: routeSelect, radius: r, key: "select/" + ftoa(r)}
		case c < cardLocalZoom:
			// To a neighbouring rung of the pinned result.
			r := exploreLadder[2*(c-cardZoom)]
			return op{route: routeZoom, radius: r, base: g.w.pinnedID, baseRadius: explorePinned, key: "zoom/" + ftoa(r)}
		default:
			centre := g.w.centres[rng.IntN(len(g.w.centres))]
			r := exploreLadder[2*(c-cardLocalZoom)]
			return op{route: routeLocalZoom, radius: r, center: centre, base: g.w.pinnedID, baseRadius: explorePinned,
				key: "localzoom/" + strconv.Itoa(centre) + "/" + ftoa(r)}
		}
	case "embed":
		// select 1 : zoom 1; each zoom starts from the connection's
		// previous select answer.
		if g.lastID == "" || g.n%2 == 1 {
			r := g.selectR.next()
			return op{route: routeSelect, radius: r, key: "select/" + ftoa(r)}
		}
		r := g.zoomR.next()
		return op{route: routeZoom, radius: r, base: g.lastID, baseRadius: g.lastRadius,
			key: "zoom/" + g.lastID + "/" + ftoa(r)}
	default: // ingest: three mutations, then one selection read
		if g.n%4 == 0 {
			return op{route: routeSelection, key: "selection"}
		}
		c := g.draw()
		if c == cardDelete && g.outstanding < 8 {
			c = cardInsertUniform
		}
		switch c {
		case cardInsertNear, cardInsertUniform:
			if c == cardInsertNear {
				g.outstanding++
			}
			p := make([]float64, 2)
			if c == cardInsertNear {
				// Next to a seed point, which stays live all run: lands in
				// or beside its component and forces a merge or repair.
				src := g.w.points[rng.IntN(len(g.w.points))]
				for i := range p {
					p[i] = src[i] + rng.NormFloat64()*2*ingestRadius
				}
			} else {
				for i := range p {
					p[i] = rng.Float64()
				}
			}
			key := "insert-uniform"
			if c == cardInsertNear {
				key = "insert-near"
			}
			return op{route: routeMutate, insert: true, point: p, key: key}
		default:
			g.outstanding--
			return op{route: routeMutate, pick: rng.Uint64(), key: "delete"}
		}
	}
}

// schedule lays out an open-loop workload's ops for a window: op i is
// due at i/rate, plus a checkpoint every ingestCheckpoint.
func (w *workload) schedule(window time.Duration, stream uint64) []*sample {
	g := w.generator(stream)
	interval := time.Duration(float64(time.Second) / w.rate)
	var out []*sample
	next := ingestCheckpoint
	add := func(o op, due time.Duration) {
		out = append(out, &sample{reqID: "o-" + strconv.Itoa(len(out)), op: o, due: due})
	}
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if due >= window {
			return out
		}
		for ; next <= due; next += ingestCheckpoint {
			add(op{route: routeCheckpoint, key: "checkpoint"}, next)
		}
		add(g.next(), due)
	}
}

// observe feeds a completed op's answer back into the generator.
func (g *generator) observe(o op, resultID string) {
	if g.w.name == "embed" && o.route == routeSelect && resultID != "" {
		g.lastID, g.lastRadius = resultID, o.radius
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
