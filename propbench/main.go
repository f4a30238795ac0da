// Command propbench is the repository's end-to-end benchmark. It generates
// one workload's corpus and requests from a seed, serves the corpus from
// a real propserve subprocess on loopback, drives it open-loop at a fixed
// rate and then closed-loop, checks answers against a from-scratch oracle,
// and prints the metrics as one JSON line:
//
//	propbench -propserve <binary> -workload hit-zipf -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 the same
// run also replays the workload in this process under spans around each
// layer's public functions and reports the per-layer metrics instead.
// propbench/run.sh builds propserve and this command and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/dataset"
)

// Run shape. Set-up is repeated at least setupSpawns times and until the
// spawns have taken setupTime, and its median reported: a 10-ms start-up
// needs a hundred spawns before the median stops moving with the few
// slow ones. The open loop takes 80% of -seconds and the closed loop the
// rest; it must schedule at least minSearches searches, so that its
// median rests on enough of them and its p99 on five beyond it.
const (
	setupSpawns = 11
	setupTime   = time.Second
	drain       = 3 * time.Second
	minSearches = 500
)

// endToEnd and perLayer name every reported metric with its unit, in the
// order BENCHMARK.json lists them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"saturation_rps", "1/s"},
	{"success_ratio", "ratio"},
	{"server_peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"propserve.app_p50_us", "us"},
	{"propserve.unattributed_p50_us", "us"},
	{"propserve.admission_wait_mean_us", "us"},
	{"propserve.admitted", "count"},
	{"propserve.shed", "count"},
	{"http.overhead_p50_us", "us"},
	{"generator.lateness_p99_ms", "ms"},
	{"open_loop.search_p99_ms", "ms"},
	{"engine.query_hit_us", "us"},
	{"engine.query_miss_us", "us"},
	{"engine.build_response_us", "us"},
	{"engine.mutate_us", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.hits", "count"},
	{"engine.misses", "count"},
	{"engine.coalesced", "count"},
	{"engine.evictions", "count"},
	{"engine.builds", "count"},
	{"engine.swept_entries", "count"},
	{"metrics.evaluate_us", "us"},
	{"metrics.evaluate_alloc_bytes", "bytes"},
	{"encode.marshal_us", "us"},
	{"encode.response_bytes", "bytes"},
	{"dataset.retrieve_us.K200", "us"},
	{"dataset.retrieve_us.K1000", "us"},
	{"dataset.retrieve_us.K2000", "us"},
	{"dataset.shard_retrieve_us", "us"},
	{"dataset.apply_us", "us"},
	{"textctx.pcs_us.K200", "us"},
	{"textctx.pcs_us.K1000", "us"},
	{"textctx.pcs_us.K2000", "us"},
	{"textctx.pairs_compared", "count"},
	{"textctx.prune_ratio", "ratio"},
	{"grid.pss_us.exact.K200", "us"},
	{"grid.pss_us.exact.K2000", "us"},
	{"grid.pss_us.squared.K200", "us"},
	{"grid.pss_us.squared.K1000", "us"},
	{"grid.pss_us.squared.K2000", "us"},
	{"grid.occupied_cells", "count"},
	{"pairs.combine_us.K200", "us"},
	{"pairs.combine_us.K1000", "us"},
	{"pairs.combine_us.K2000", "us"},
	{"core.step1_us.K200", "us"},
	{"core.step1_us.K1000", "us"},
	{"core.step1_us.K2000", "us"},
	{"core.step1_self_us.K200", "us"},
	{"core.step1_self_us.K1000", "us"},
	{"core.step1_self_us.K2000", "us"},
	{"core.step2_us.abp.K200", "us"},
	{"core.step2_us.abp.K1000", "us"},
	{"core.step2_us.abp.K2000", "us"},
	{"core.step2_us.iadu.K200", "us"},
	{"core.step2_us.iadu.K1000", "us"},
	{"core.step2_us.iadu.K2000", "us"},
	{"core.step2_alloc_bytes.abp.K2000", "bytes"},
	{"core.scoreset_bytes.K200", "bytes"},
	{"core.scoreset_bytes.K1000", "bytes"},
	{"core.scoreset_bytes.K2000", "bytes"},
	{"core.evaluate_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_mutation", "bytes"},
	{"ledger.layer_sum_p50_us", "us"},
	{"ledger.unattributed_us", "us"},
	{"trace.overhead_us", "us"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: hit-zipf or miss-mid")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the corpus and the requests")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds (open loop 80%, closed loop 20%)")
	flag.IntVar(&cfg.trace, "trace", 0, "1: also run the traced replay and report per-layer metrics")
	flag.StringVar(&cfg.propserve, "propserve", "", "propserve binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/runs", "directory for per-run files (removed after the run)")
	flag.Parse()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "propbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "propbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type config struct {
	workload        string
	seed            int64
	seconds, trace  int
	propserve, work string
}

func run(cfg config) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.propserve == "" || cfg.seconds < 4 || (cfg.trace != 0 && cfg.trace != 1) {
		return nil, errors.New("need -propserve, -seconds ≥ 4 and -trace 0 or 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Inputs. The corpus is reloaded from the file the server gets, so
	// the oracle sees exactly the server's dictionary and index.
	corpus := filepath.Join(dir, "corpus.gob")
	d, err := writeCorpus(corpusConfig(w), corpus)
	if err != nil {
		return nil, err
	}
	total := time.Duration(cfg.seconds) * time.Second
	openLen := total * 4 / 5
	p, err := newPlan(w, cfg.seed, d, openLen)
	if err != nil {
		return nil, err
	}
	if len(p.ops) < minSearches {
		return nil, fmt.Errorf("%s at %ds schedules %d searches; need ≥%d", w.name, cfg.seconds, len(p.ops), minSearches)
	}

	// Set-up, repeated; the last server stays up for the measurement.
	var setups []float64
	var srv *server
	for spent := time.Duration(0); srv == nil; {
		args := append([]string{"-data", corpus}, w.serverArgs()...)
		s, dt, err := spawn(cfg.propserve, args, filepath.Join(dir, "server.log"))
		if err != nil {
			return nil, err
		}
		setups, spent = append(setups, dt.Seconds()), spent+dt
		if len(setups) >= setupSpawns && spent >= setupTime {
			srv = s
		} else {
			s.stop()
		}
	}
	defer srv.stop()

	nproc := runtime.NumCPU()
	client := newClient(nproc)
	orc := newOracle(d)
	m := &measure{p: p, srv: srv, client: client, seen: consistency{}}

	// Warm-up: fill the cache with the pool (or build the grid table and
	// open connections on miss-mid); not measured.
	warm := p.pool
	if warm == nil {
		warm = p.probes[:8]
	}
	for i := range warm {
		if o := do(ctx, client, srv.base, &warm[i]); o.err != nil || o.status != 200 {
			return nil, fmt.Errorf("warm-up search failed: status %d, %v: %s", o.status, o.err, srv.tail())
		}
	}

	before, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	open := runOpen(ctx, p.due, openLen, drain, func(ctx context.Context, i int) outcome {
		return do(ctx, client, srv.base, p.ops[i].search)
	})
	after, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	m.check(open, func(i int) op { return p.ops[i] })
	probes1, err := m.probe(ctx, orc)
	if err != nil {
		return nil, err
	}
	// The oracle's score sets are garbage now; collect them before the
	// next phase rather than during it, on the server's CPUs.
	runtime.GC()

	var mu sync.Mutex
	var closedOps []op
	closed, completed := runClosed(ctx, nproc, total-openLen, func(int) int {
		mu.Lock()
		defer mu.Unlock()
		closedOps = append(closedOps, p.gen.searchOp())
		return len(closedOps) - 1
	}, func(ctx context.Context, i int) outcome {
		mu.Lock()
		o := closedOps[i]
		mu.Unlock()
		return do(ctx, client, srv.base, o.search)
	})
	m.check(closed, func(i int) op { return closedOps[i] })
	probes2, err := m.probe(ctx, orc)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var t tally
	t.add(open...)
	t.add(closed...)
	t.add(probes1...)
	t.add(probes2...)
	late, first, last := lateness(open)
	if latenessGrows(first, last) {
		return nil, fmt.Errorf("invalid run: the generator fell behind its schedule (send−due p99 %.2f ms in the first quarter, %.2f ms in the last)", first, last)
	}

	penalty := ms(openLen + drain)
	var searchLat, app, unattributed, overhead []float64
	for _, r := range open {
		lat := ms(r.latency())
		if r.failure() != failNone {
			lat = penalty
		}
		searchLat = append(searchLat, lat)
		if r.failure() == failNone {
			app = append(app, r.appMS*1e3)
			unattributed = append(unattributed, (r.appMS-r.stageMS)*1e3)
			overhead = append(overhead, us(r.done.Sub(r.gotConn))-r.appMS*1e3)
		}
	}
	all := map[string]float64{
		"setup_s":            median(setups),
		"search_p50_ms":      percentile(searchLat, 0.50),
		"saturation_rps":     completed / (total - openLen).Seconds(),
		"success_ratio":      1 - float64(t.failures())/float64(t.attempted),
		"server_peak_rss_mb": rss,
	}
	delta := after.minus(before)
	lookups := delta["hits"] + delta["misses"] + delta["coalesced"]
	layer := map[string]float64{
		"propserve.app_p50_us":          median(app),
		"propserve.unattributed_p50_us": median(unattributed),
		"propserve.admitted":            delta["admitted"],
		"propserve.shed":                delta["shed"],
		"http.overhead_p50_us":          median(overhead),
		"generator.lateness_p99_ms":     late,
		"open_loop.search_p99_ms":       percentile(searchLat, 0.99),
		"engine.hits":                   delta["hits"],
		"engine.misses":                 delta["misses"],
		"engine.coalesced":              delta["coalesced"],
		"engine.evictions":              delta["evictions"],
		"engine.builds":                 delta["builds"],
	}
	if n := delta["queue_wait_seconds_count"]; n > 0 {
		layer["propserve.admission_wait_mean_us"] = delta["queue_wait_seconds_sum"] / n * 1e6
	}
	if lookups > 0 {
		layer["engine.cache_hit_ratio"] = delta["hits"] / lookups
	}

	fmt.Fprintf(os.Stderr, "propbench: %s seed %d: %d places, %d searches scheduled at %.0f/s over %v, closed loop %v on %d connections\n",
		w.name, cfg.seed, len(d.Places), len(p.ops), w.searchRPS, openLen, total-openLen, nproc)
	fmt.Fprintf(os.Stderr, "propbench: search latency from due, ms: p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f p99 %.3f (%d searches)\n",
		percentile(searchLat, 0.1), percentile(searchLat, 0.25), percentile(searchLat, 0.5), percentile(searchLat, 0.75),
		percentile(searchLat, 0.9), percentile(searchLat, 0.99), len(searchLat))
	var fromSend []float64
	for _, r := range open {
		fromSend = append(fromSend, ms(r.done.Sub(r.sent)))
	}
	fmt.Fprintf(os.Stderr, "propbench: from send p50 %.3f p99 %.3f; server app p50 %.3f p99 %.3f\n", percentile(fromSend, 0.5), percentile(fromSend, 0.99), median(app)/1e3, percentile(app, 0.99)/1e3)
	fmt.Fprintf(os.Stderr, "propbench: attempted %d, failed %d (unfinished %d, transport %d, status %d, wrong %d), error_ratio %.6f; generator late p99 %.3f ms (first quarter %.3f, last %.3f)\n",
		t.attempted, t.failures(), t.failed[failUnfinished], t.failed[failTransport], t.failed[failStatus], t.failed[failWrong],
		float64(t.failures())/float64(t.attempted), late, first, last)

	rep := &report{Correct: t.failed[failWrong] == 0, Attempted: t.attempted, Failed: t.failures(), Metrics: map[string]metricValue{}}
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
		lo, err := traced(ctx, p, d, dir)
		if err != nil {
			return nil, err
		}
		for k, v := range lo {
			layer[k] = v
		}
		layer["ledger.unattributed_us"] = layer["propserve.app_p50_us"] - layer["ledger.layer_sum_p50_us"]
		all = layer
	}
	for _, def := range defs {
		// A counter or series the workload never produced reads 0.
		rep.Metrics[def.name] = metricValue{Value: all[def.name], Unit: def.unit}
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}

// writeCorpus generates the corpus, saves it where the server loads it
// from, and returns the saved corpus as loaded back.
func writeCorpus(c dataset.Config, path string) (*dataset.Dataset, error) {
	d, err := dataset.Generate(c)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if f, err = os.Open(path); err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.Load(f)
}
