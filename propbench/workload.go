package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
)

// workload is one search mix against one generated corpus. Offered rates
// are fixed here and in BENCHMARK.json; they never adapt during a run.
type workload struct {
	name   string
	places int // DBpedia-like corpus size
	// cacheEntries is -cache-entries; 0 keeps the server's default.
	cacheEntries int
	// searchRPS is the open-loop Poisson rate.
	searchRPS float64
	// replay is how many ops of the open-loop schedule the traced run
	// replays in the benchmark process.
	replay int
}

var workloads = []workload{
	// Every search repeats one of 32 pool entries, so after warm-up the
	// score-set cache answers all of them. The rate is about a tenth of
	// the saturation rate: on a shared host whose CPUs are taken away for
	// a fifth of the time or more, a rate near half of it overloads the
	// server and the latencies measure the host, not the server.
	{name: "hit-zipf", places: 1500, searchRPS: 200, replay: 2000},
	// Every search has its own cache key on a 20k-place corpus, with a K
	// mix whose tail is Step 1 and ABP at K=2000. The cache cannot help
	// unique keys; a small one keeps the server's memory to what the
	// searches themselves use. 11.37/s gives the 44-s open loop of a 55-s
	// run 500 searches, one per base query. On a 100k-place corpus, or at
	// twice the rate, a memory-bound neighbour on the host raised the
	// median by a third to a half; here by a few percent.
	{name: "miss-mid", places: 20_000, cacheEntries: 8, searchRPS: 11.37, replay: 120},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverArgs are the propserve flags beyond -addr and -data.
func (w workload) serverArgs() []string {
	if w.cacheEntries > 0 {
		return []string{"-cache-entries", strconv.Itoa(w.cacheEntries)}
	}
	return nil
}

// searchReq is one /v1/search request.
type searchReq struct {
	X, Y          float64
	Keywords      []string
	K, SmallK     int
	Lambda        float64
	Algo, Spatial string
	// pool is the request's pool entry, or -1 for a one-off request.
	pool int
}

func (s searchReq) query() string {
	v := url.Values{}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	v.Set("x", f(s.X))
	v.Set("y", f(s.Y))
	if len(s.Keywords) > 0 {
		v.Set("keywords", strings.Join(s.Keywords, ","))
	}
	v.Set("K", strconv.Itoa(s.K))
	v.Set("k", strconv.Itoa(s.SmallK))
	v.Set("lambda", f(s.Lambda))
	v.Set("algo", s.Algo)
	v.Set("spatial", s.Spatial)
	return v.Encode()
}

// op is one request: a search, or a single-upsert mutation (only the
// traced run mutates).
type op struct {
	search *searchReq
	upsert *dataset.Upsert
}

// plan is every input of one run, derived from the seed alone.
type plan struct {
	w    workload
	seed int64
	d    *dataset.Dataset
	// pool holds hit-zipf's repeated searches, bases miss-mid's base
	// queries.
	pool  []searchReq
	bases []dataset.Query
	// ops and due are the open-loop schedule: ops[i] is due at due[i].
	ops []op
	due []time.Duration
	// probes is the fixed oracle probe set.
	probes []searchReq
	gen    *opGen
}

// corpusSeed fixes the corpus: it is the seed of propserve's demo corpus.
// The run's seed draws the requests, so runs on different seeds measure
// the same corpus under different traffic, and a corpus layout that
// happens to be cheap or dear does not spread the figures.
const corpusSeed = 7

// corpusConfig is the DBpedia-like corpus of workload w.
func corpusConfig(w workload) dataset.Config {
	c := dataset.DBpediaLike(corpusSeed)
	c.Places = w.places
	return c
}

func newPlan(w workload, seed int64, d *dataset.Dataset, openLen time.Duration) (*plan, error) {
	p := &plan{w: w, seed: seed, d: d}
	rng := rand.New(rand.NewSource(seed))
	p.gen = &opGen{p: p}
	if w.name == "hit-zipf" {
		// The pool, like the corpus, is fixed: with Zipf skew a few
		// entries take most of the traffic, and a pool drawn per seed
		// would make their cost the run's. The seed draws the order.
		poolRng := rand.New(rand.NewSource(corpusSeed))
		qs, err := d.GenQueries(32, 200, poolRng.Int63())
		if err != nil {
			return nil, err
		}
		algos := []string{"abp", "iadu"}
		lambdas := []float64{0.3, 0.5, 0.7}
		for i, q := range qs {
			p.pool = append(p.pool, searchReq{
				X: q.Loc.X, Y: q.Loc.Y, Keywords: q.Keywords.Words(d.Dict),
				K: 200, SmallK: 10, Lambda: lambdas[poolRng.Intn(3)], Algo: algos[poolRng.Intn(2)],
				Spatial: "squared", pool: i,
			})
		}
		p.probes = p.pool
	} else {
		// The base queries, like the corpus, are fixed, so every run
		// searches the same 500 places and keyword sets; the seed draws
		// their order, their jitter and the arrival times. Drawn per seed,
		// the cost of the queries a run happened to get would spread its
		// median.
		var err error
		if p.bases, err = d.GenQueries(missBases, min(2000, len(d.Places)), corpusSeed); err != nil {
			return nil, err
		}
		probeRng := rand.New(rand.NewSource(rng.Int63()))
		// 32 probes covering the miss mix: K=200 over the squared grid and
		// exact, K=1000 and K=2000, every fourth with IAdU.
		for i := 0; i < 32; i++ {
			K, spatial := 200, "squared"
			switch {
			case i >= 29:
				K = 2000
			case i >= 24:
				K = 1000
			case i >= 18:
				spatial = "exact"
			}
			s, err := p.gen.missSearch(probeRng, K, spatial)
			if err != nil {
				return nil, err
			}
			if i%4 == 3 {
				s.Algo = "iadu"
			}
			p.probes = append(p.probes, s)
		}
	}
	p.gen.rng = rand.New(rand.NewSource(rng.Int63()))
	p.gen.zipf = rand.NewZipf(p.gen.rng, 1.3, 1, 31)

	for _, at := range poisson(rand.New(rand.NewSource(rng.Int63())), w.searchRPS, openLen) {
		p.ops, p.due = append(p.ops, p.gen.searchOp()), append(p.due, at)
	}
	return p, nil
}

// opGen makes the workload's requests from one seeded stream.
type opGen struct {
	p    *plan
	rng  *rand.Rand
	zipf *rand.Zipf
	// decks and deck are what is left of miss-mid's current round of
	// decks and of its current deck.
	decks   []int
	deck    []missItem
	upserts int
}

func (g *opGen) searchOp() op {
	if g.p.pool != nil {
		s := g.p.pool[g.zipf.Uint64()]
		return op{search: &s}
	}
	if len(g.deck) == 0 {
		if len(g.decks) == 0 {
			g.decks = g.rng.Perm(len(g.p.bases) / 100)
		}
		bases := g.p.bases[g.decks[0]*100:]
		g.decks = g.decks[1:]
		for j, c := range missDeck() {
			g.deck = append(g.deck, missItem{bases[j], c})
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	it := g.deck[0]
	g.deck = g.deck[1:]
	return op{search: &searchReq{
		X: it.q.Loc.X + g.rng.NormFloat64()*missJitter, Y: it.q.Loc.Y + g.rng.NormFloat64()*missJitter,
		Keywords: it.q.Keywords.Words(g.p.d.Dict),
		K:        it.K, SmallK: 10, Lambda: 0.5, Algo: it.algo, Spatial: it.spatial, pool: -1,
	}}
}

// missBases is how many fixed base queries miss-mid draws its searches
// from: five decks, the 500 searches of a 55-s run's open loop.
// missJitter is the standard deviation of the offset each search adds to
// its base query's location (the corpus spans 100×100): enough to give
// every search its own cache key, too little to change its cost.
const (
	missBases  = 500
	missJitter = 0.01
)

// missItem is a base query in a deck slot's shape.
type missItem struct {
	q dataset.Query
	missShape
}

// missShape is the K, spatial method and algorithm of a miss-mid search.
type missShape struct {
	K             int
	spatial, algo string
}

// missDeck is 100 searches in exactly the miss-mid mix: K=200 for 80,
// 1000 for 15 and 2000 for 5; 16 of the K=200 searches exact; IAdU for 20
// spread over every K. Drawing from shuffled decks instead of
// independently keeps every run's mix — and so its tail — the same.
func missDeck() []missShape {
	deck := make([]missShape, 0, 100)
	for j := 0; j < 100; j++ {
		c := missShape{K: 200, spatial: "squared", algo: "abp"}
		switch {
		case j < 5:
			c.K = 2000
		case j < 20:
			c.K = 1000
		case j%5 == 0:
			c.spatial = "exact"
		}
		if j%5 == 1 {
			c.algo = "iadu"
		}
		deck = append(deck, c)
	}
	return deck
}

// missSearch draws a query near a random place, so its location — and
// with it the cache key — is unique. On a corpus smaller than K the search
// retrieves every place.
func (g *opGen) missSearch(rng *rand.Rand, K int, spatial string) (searchReq, error) {
	qs, err := g.p.d.GenQueries(1, min(K, len(g.p.d.Places)), rng.Int63())
	if err != nil {
		return searchReq{}, err
	}
	q := qs[0]
	return searchReq{
		X: q.Loc.X, Y: q.Loc.Y, Keywords: q.Keywords.Words(g.p.d.Dict),
		K: K, SmallK: 10, Lambda: 0.5, Algo: "abp", Spatial: spatial, pool: -1,
	}, nil
}

// mutateOp inserts one new place beside a random existing one, with that
// place's context words, under a unique ID.
func (g *opGen) mutateOp() op {
	base := g.p.d.Places[g.rng.Intn(len(g.p.d.Places))]
	g.upserts++
	return op{upsert: &dataset.Upsert{
		ID:      fmt.Sprintf("bench-%d-%d", g.p.seed, g.upserts),
		X:       base.Loc.X + g.rng.NormFloat64()*0.5,
		Y:       base.Loc.Y + g.rng.NormFloat64()*0.5,
		Context: base.Context.Words(g.p.d.Dict),
	}}
}
