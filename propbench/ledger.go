package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/pairs"
	"repro/internal/textctx"
	"repro/internal/wal"
)

// The traced run measures the layers from outside the server: it calls
// each layer's public function from this process under spans it records
// itself. Two parts:
//
//   - replay: the first ops of the open-loop schedule, in order, against
//     an in-process engine configured like the server, under spans; then
//     cache hits repeated with and without spans, whose gap is the
//     tracing overhead.
//   - pipeline: searches at K = 200, 1000 and 2000 computed layer by
//     layer — retrieval, Step 1 split into pCS, pSS and the pair-matrix
//     combine, Step 2 with both greedy algorithms, HPF, the diagnostics —
//     plus the mutation path's dataset.Apply and wal.Append.

// layerOut collects per-layer metrics by name.
type layerOut map[string]float64

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayEngine is the in-process engine a replay runs against.
func replayEngine(p *plan, d *dataset.Dataset) *engine.Engine {
	return engine.New(d, engine.Options{MaxK: 2000, CacheEntries: p.w.cacheEntries})
}

// replayed is what one replayed op returned.
type replayed struct {
	cache   string // the engine's cache verdict on a search
	bodyLen int    // the encoded search response's length
	swept   int    // score sets a mutation swept from the cache
}

// replayOp runs op o against e as the server's handler does. rec, when
// non-nil, records one span per layer call under parent: engine.query,
// engine.build_response and encode.marshal for a search, engine.mutate
// for a mutation.
func replayOp(ctx context.Context, e *engine.Engine, o op, rec *recorder, req, parent int) (out replayed, err error) {
	timed := func(name string, f func()) {
		if rec == nil {
			f()
		} else {
			rec.timed(req, parent, name, f)
		}
	}
	if o.upsert != nil {
		var mr *engine.MutationResult
		timed("engine.mutate", func() {
			mr, err = e.Mutate(ctx, engine.Mutation{Upserts: []dataset.Upsert{*o.upsert}})
		})
		if err != nil {
			return out, err
		}
		out.swept = mr.Swept
		return out, nil
	}
	vals, err := url.ParseQuery(o.search.query())
	if err != nil {
		return out, err
	}
	var (
		q    *engine.QueryRequest
		res  *engine.Result
		resp *engine.QueryResponse
		body []byte
	)
	timed("engine.query", func() {
		if q, err = e.RequestFromValues(vals); err == nil {
			res, err = e.Query(ctx, q)
		}
	})
	if err != nil {
		return out, err
	}
	timed("engine.build_response", func() { resp = e.BuildResponse(q, res, nil) })
	timed("encode.marshal", func() { body, err = json.Marshal(resp) })
	out.cache, out.bodyLen = res.Cache, len(body)
	return out, err
}

// traced runs the replay and the layer pipeline and returns the per-layer
// metrics they measure.
func traced(ctx context.Context, p *plan, d *dataset.Dataset, dir string) (layerOut, error) {
	out := layerOut{}
	n := min(p.w.replay, len(p.ops))
	e := replayEngine(p, d)
	rec := newRecorder()
	cacheOf := map[int]string{} // engine.query span id → the engine's verdict
	var layerSum, bodies []float64
	swept := 0
	replayOne := func(req int, o op) error {
		root := rec.begin(req, 0, "request")
		r, err := replayOp(ctx, e, o, rec, req, root)
		rec.end(root)
		if err != nil {
			return err
		}
		swept += r.swept
		if o.search != nil {
			cacheOf[root+1] = r.cache
			bodies = append(bodies, float64(r.bodyLen))
			sum := time.Duration(0)
			for _, s := range rec.spans[root:] {
				sum += s.dur()
			}
			layerSum = append(layerSum, us(sum))
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := replayOne(i, p.ops[i]); err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	out["ledger.layer_sum_p50_us"] = median(layerSum)
	out["encode.response_bytes"] = median(bodies)

	// Every workload also gets hits — the replay's last searches again,
	// as many as the cache still holds — and three single-upsert
	// mutations.
	var recent []op
	for i := n - 1; i >= 0 && len(recent) < 32; i-- {
		recent = append(recent, p.ops[i])
	}
	for k, o := range recent {
		if err := replayOne(n+k, o); err != nil {
			return nil, err
		}
	}
	if err := evaluateCost(ctx, e, recent, out); err != nil {
		return nil, err
	}
	overhead, err := traceOverhead(ctx, e, recent[:min(len(recent), 8)])
	if err != nil {
		return nil, err
	}
	out["trace.overhead_us"] = overhead
	g := &opGen{p: p, rng: rand.New(rand.NewSource(p.seed ^ 0x5eed))}
	for k := 0; k < 3; k++ {
		o := g.mutateOp()
		o.upsert.ID = fmt.Sprintf("ledger-%d", k)
		if err := replayOne(n+len(recent)+k, o); err != nil {
			return nil, err
		}
	}
	out["engine.swept_entries"] = float64(swept)

	by := map[string][]float64{}
	for _, s := range rec.spans {
		name := s.name
		if name == "engine.query" {
			name = "engine.query_miss"
			if cacheOf[s.id] == engine.CacheHit {
				name = "engine.query_hit"
			}
		}
		by[name] = append(by[name], us(s.dur()))
	}
	for _, name := range []string{"engine.query_hit", "engine.query_miss", "engine.build_response", "engine.mutate", "encode.marshal"} {
		out[name+"_us"] = median(by[name])
	}
	if err := pipeline(ctx, p, d, out); err != nil {
		return nil, err
	}
	if err := mutationPath(ctx, p, d, dir, out); err != nil {
		return nil, err
	}
	return out, nil
}

// evaluateCost times metrics.Evaluate, which engine.BuildResponse calls
// inside, on the results of ops, and measures its allocation.
func evaluateCost(ctx context.Context, e *engine.Engine, ops []op, out layerOut) error {
	rec := newRecorder()
	var allocs []float64
	for k, o := range ops {
		vals, err := url.ParseQuery(o.search.query())
		if err != nil {
			return err
		}
		q, err := e.RequestFromValues(vals)
		if err != nil {
			return err
		}
		res, err := e.Query(ctx, q)
		if err != nil {
			return err
		}
		rec.timed(k, 0, "metrics.evaluate", func() { metrics.Evaluate(res.SS, res.Sel.Indices) })
		allocs = append(allocs, allocBytes(func() { metrics.Evaluate(res.SS, res.Sel.Indices) }))
	}
	out["metrics.evaluate_us"] = median(rec.durations()["metrics.evaluate"])
	out["metrics.evaluate_alloc_bytes"] = median(allocs)
	return nil
}

// traceOverhead is the tracing overhead of one search: the median, over
// every op repeated 50 times with and without spans in alternating order,
// of the traced time minus the untraced one. Each op is queried once
// first, so every timed repetition is a cache hit: a miss's own spread
// would swamp the few microseconds the spans cost.
func traceOverhead(ctx context.Context, e *engine.Engine, ops []op) (float64, error) {
	rec := newRecorder()
	var diffs []float64
	for k, o := range ops {
		if _, err := replayOp(ctx, e, o, nil, 0, 0); err != nil {
			return 0, err
		}
		for rep := 0; rep < 50; rep++ {
			var plain, traced time.Duration
			untracedRun := func() error {
				t := time.Now()
				r, err := replayOp(ctx, e, o, nil, 0, 0)
				plain = time.Since(t)
				if err == nil && r.cache != engine.CacheHit {
					err = fmt.Errorf("trace overhead: op %d is a cache %s, not a hit", k, r.cache)
				}
				return err
			}
			tracedRun := func() error {
				rec.spans = rec.spans[:0]
				root := rec.begin(k, 0, "request")
				_, err := replayOp(ctx, e, o, rec, k, root)
				rec.end(root)
				traced = rec.spans[root-1].dur()
				return err
			}
			first, second := untracedRun, tracedRun
			if rep%2 == 1 {
				first, second = second, first
			}
			if err := first(); err != nil {
				return 0, err
			}
			if err := second(); err != nil {
				return 0, err
			}
			diffs = append(diffs, us(traced)-us(plain))
		}
	}
	return median(diffs), nil
}

// allocBytes is the heap allocation of one call of f.
func allocBytes(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc)
}

// instance is one pipeline search of the layer ledger.
type instance struct {
	K       int
	spatial string
	count   int
}

// ledgerInstances are the pipeline searches: every K of the miss mix over
// the squared grid, and the exact spatial all-pairs at K=200 and 2000.
var ledgerInstances = []instance{{200, "squared", 6}, {200, "exact", 4}, {1000, "squared", 3}, {2000, "squared", 2}, {2000, "exact", 2}}

// pipeline computes ledger searches layer by layer under spans.
func pipeline(ctx context.Context, p *plan, d *dataset.Dataset, out layerOut) error {
	rng := rand.New(rand.NewSource(p.seed ^ 0x1ed6e5))
	g := &opGen{p: p, rng: rng}
	table := grid.NewSquaredTable(grid.SideForCells(engineGridTableCells))
	sv, err := dataset.NewShardView(d, 4, 0)
	if err != nil {
		return err
	}
	rec := newRecorder()
	by := map[string][]float64{}
	add := func(name string, v float64) { by[name] = append(by[name], v) }
	req := 0
	for _, in := range ledgerInstances {
		for c := 0; c < in.count; c++ {
			req++
			s, err := g.missSearch(rng, in.K, in.spatial)
			if err != nil {
				return err
			}
			q := dataset.Query{Loc: geo.Pt(s.X, s.Y), Keywords: keywordSet(d, s.Keywords)}
			sfx := fmt.Sprintf(".K%d", in.K)
			root := rec.begin(req, 0, "pipeline")
			var places []core.Place
			rid := rec.timed(req, root, "dataset.retrieve", func() { places, err = d.Retrieve(q, in.K) })
			if err != nil {
				return err
			}
			ss, ids, err := step1(ctx, rec, req, root, q.Loc, places, in.spatial, table)
			if err != nil {
				return err
			}
			params := core.Params{K: s.SmallK, Lambda: s.Lambda, Gamma: 0.5}
			var sel core.Selection
			var abpID, iaduID int
			for _, alg := range []core.Algorithm{core.AlgABP, core.AlgIAdU} {
				id := rec.timed(req, root, "core.step2."+string(alg), func() { sel, err = core.Select(alg, ss, params) })
				if err != nil {
					return err
				}
				if alg == core.AlgABP {
					abpID = id
				} else {
					iaduID = id
				}
			}
			evID := rec.timed(req, root, "core.evaluate", func() { ss.Evaluate(sel.Indices, s.Lambda) })
			rec.end(root)
			self := selfTimes(rec.spans[root-1:])
			add("dataset.retrieve_us"+sfx, us(rec.spans[rid-1].dur()))
			add("textctx.pcs_us"+sfx, us(rec.spans[ids.pcs-1].dur()))
			add("grid.pss_us."+in.spatial+sfx, us(rec.spans[ids.pss-1].dur()))
			add("pairs.combine_us"+sfx, us(rec.spans[ids.combine-1].dur()))
			if in.spatial == "squared" { // Step 1 as served by default
				add("core.step1_us"+sfx, us(rec.spans[ids.step1-1].dur()))
				add("core.step1_self_us"+sfx, us(self[ids.step1]))
			}
			add("core.step2_us.abp"+sfx, us(rec.spans[abpID-1].dur()))
			add("core.step2_us.iadu"+sfx, us(rec.spans[iaduID-1].dur()))
			add("core.scoreset_bytes"+sfx, scoreSetBytes(ss))
			if in.K == 200 {
				add("core.evaluate_us", us(rec.spans[evID-1].dur()))
				rec.timed(req, 0, "dataset.shard_retrieve", func() { _, err = sv.Retrieve(ctx, q, in.K) })
				if err != nil {
					return err
				}
				add("dataset.shard_retrieve_us", us(rec.spans[len(rec.spans)-1].dur()))
				compared, ratio := pruning(ctx, places)
				add("textctx.pairs_compared", compared)
				add("textctx.prune_ratio", ratio)
				if in.spatial == "squared" {
					add("grid.occupied_cells", float64(ids.occupied))
				}
			}
			if in.K == 2000 {
				add("core.step2_alloc_bytes.abp.K2000", allocBytes(func() { core.Select(core.AlgABP, ss, params) }))
			}
			if c == 0 {
				if err := sameAsCore(q.Loc, places, in.spatial, table, ss); err != nil {
					return err
				}
			}
		}
	}
	for name, xs := range by {
		out[name] = median(xs)
	}
	return nil
}

// step1ids are the span ids of one decomposed Step 1.
type step1ids struct {
	step1, pcs, pss, combine int
	occupied                 int
}

// step1 is core.ComputeScores split at its layer calls: the msJh
// contextual all-pairs (textctx), the spatial all-pairs (grid), and the
// γ-weighted combination (pairs); what remains is core's own work.
func step1(ctx context.Context, rec *recorder, req, parent int, loc geo.Point, places []core.Place, spatial string, table *grid.SquaredTable) (*core.ScoreSet, step1ids, error) {
	var ids step1ids
	ids.step1 = rec.begin(req, parent, "core.step1")
	sets := make([]textctx.Set, len(places))
	pts := make([]geo.Point, len(places))
	for i := range places {
		if err := places[i].Validate(); err != nil {
			return nil, ids, err
		}
		sets[i], pts[i] = places[i].Context, places[i].Loc
	}
	var (
		sc, sp *pairs.Matrix
		pss    []float64
		err    error
	)
	ids.pcs = rec.timed(req, ids.step1, "textctx.pcs", func() { sc, err = textctx.MSJHEngine{}.AllPairsCtx(ctx, sets) })
	if err != nil {
		return nil, ids, err
	}
	ids.pss = rec.timed(req, ids.step1, "grid.pss", func() {
		if spatial == "exact" {
			pss, sp, err = grid.PSSBaselineCtx(ctx, loc, pts)
			return
		}
		var g *grid.Squared
		if g, err = grid.NewSquared(loc, pts, len(pts)); err != nil {
			return
		}
		ids.occupied = g.OccupiedCells()
		pss = g.PSS(table)
		sp, err = g.ApproxAllPairsCtx(ctx, table)
	})
	if err != nil {
		return nil, ids, err
	}
	pcs := sc.RowSums()
	pfs := make([]float64, len(places))
	for i := range pfs {
		pfs[i] = 0.5*pcs[i] + 0.5*pss[i]
	}
	var sf *pairs.Matrix
	ids.combine = rec.timed(req, ids.step1, "pairs.combine", func() { sf = pairs.Combine(sc, sp, 0.5, 0.5) })
	rec.end(ids.step1)
	return &core.ScoreSet{Places: places, Q: loc, Gamma: 0.5, PCS: pcs, PSS: pss, PFS: pfs, SC: sc, SS: sp, SF: sf}, ids, nil
}

// sameAsCore checks the decomposed Step 1 against core.ComputeScores, so
// the ledger times the computation the server runs.
func sameAsCore(loc geo.Point, places []core.Place, spatial string, table *grid.SquaredTable, got *core.ScoreSet) error {
	opt := core.ScoreOptions{Gamma: 0.5, Spatial: spatialMethod(spatial)}
	if spatial != "exact" {
		opt.SquaredTable = table
	}
	want, err := core.ComputeScores(loc, places, opt)
	if err != nil {
		return err
	}
	for i := range want.PFS {
		if math.Float64bits(want.PFS[i]) != math.Float64bits(got.PFS[i]) {
			return fmt.Errorf("ledger: decomposed Step 1 differs from core.ComputeScores at place %d (%s, K=%d)", i, spatial, len(places))
		}
	}
	if math.Float64bits(want.SF.Sum()) != math.Float64bits(got.SF.Sum()) {
		return fmt.Errorf("ledger: decomposed sF differs from core.ComputeScores (%s, K=%d)", spatial, len(places))
	}
	return nil
}

// pruning returns msJh's compared pairs and pruned ratio on places, read
// through an explain collector outside any timed span.
func pruning(ctx context.Context, places []core.Place) (compared, ratio float64) {
	sets := make([]textctx.Set, len(places))
	for i := range places {
		sets[i] = places[i].Context
	}
	ec := explain.New()
	textctx.MSJHEngine{}.AllPairsCtx(explain.WithCollector(ctx, ec), sets) // the error is ctx's, checked by the caller's next call
	if pr := ec.Report().Pruning; pr != nil {
		return float64(pr.ComparedPairs), pr.PrunedRatio
	}
	return 0, 0
}

// scoreSetBytes is the size of a score set's three pair matrices and three
// score vectors.
func scoreSetBytes(ss *core.ScoreSet) float64 {
	n := float64(ss.K())
	return 3*n*(n-1)/2*8 + 3*n*8
}

// mutationPath times one single-upsert dataset.Apply and wal.Append with
// fsync.
func mutationPath(ctx context.Context, p *plan, d *dataset.Dataset, dir string, out layerOut) error {
	rng := rand.New(rand.NewSource(p.seed ^ 0xa991))
	g := &opGen{p: p, rng: rng}
	rec := newRecorder()
	for k := 0; k < 3; k++ {
		b := dataset.Batch{Upserts: []dataset.Upsert{*g.mutateOp().upsert}}
		var err error
		rec.timed(k, 0, "dataset.apply", func() { _, _, err = d.Apply(b) })
		if err != nil {
			return err
		}
	}
	l, _, err := wal.Open(filepath.Join(dir, "ledger-wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	const appends = 20
	for k := 0; k < appends; k++ {
		payload, err := engine.EncodeMutation(engine.Mutation{Upserts: []dataset.Upsert{*g.mutateOp().upsert}})
		if err != nil {
			return err
		}
		rec.timed(k, 0, "wal.append", func() { err = l.Append(ctx, uint64(k+1), payload) })
		if err != nil {
			l.Close()
			return err
		}
	}
	bytes := l.Stats().Bytes
	if err := l.Close(); err != nil {
		return err
	}
	by := rec.durations()
	out["dataset.apply_us"] = median(by["dataset.apply"])
	out["wal.append_us"] = median(by["wal.append"])
	out["wal.bytes_per_mutation"] = float64(bytes) / appends
	return nil
}
