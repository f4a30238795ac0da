package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
)

func TestPercentileNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 10, 99, 100, 101, 999, 1000, 1001} {
		for _, p := range []struct{ num, den int }{{1, 2}, {9, 10}, {99, 100}, {1, 1}} {
			xs := make([]float64, n)
			for i := range xs {
				xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
			}
			rank := (p.num*n + p.den - 1) / p.den // ⌈p·n⌉ in integers
			if got := percentile(xs, float64(p.num)/float64(p.den)); got != float64(rank) {
				t.Errorf("n=%d p=%d/%d: got %v, want rank %d", n, p.num, p.den, got, rank)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
}

// A server stall must raise the latency of every request queued behind
// it: requests are timed from their due time, not from when a connection
// finally carried the request.
func TestDueTimeStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("stall") != "" {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := newClient(1) // one connection: later requests queue behind the stall
	defer client.CloseIdleConnections()
	due := make([]time.Duration, 30)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	const stalled = 3
	res := runOpen(context.Background(), due, 300*time.Millisecond, 2*time.Second, func(ctx context.Context, i int) outcome {
		url := srv.URL + "/"
		if i == stalled {
			url += "?stall=1"
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := client.Do(req)
		if err != nil {
			return outcome{err: err}
		}
		resp.Body.Close()
		return outcome{status: resp.StatusCode}
	})
	stallEnd := res[stalled].done
	queued := 0
	for _, r := range res[stalled+1:] {
		if r.failure() != failNone {
			t.Fatalf("request %d failed: %+v", r.op, r.outcome)
		}
		if late := r.sent.Sub(r.due); late > 50*time.Millisecond {
			t.Errorf("request %d sent %v after its due time: the generator waited on the stall", r.op, late)
		}
		if r.due.Before(stallEnd) {
			queued++
			if min := stallEnd.Sub(r.due); r.latency() < min {
				t.Errorf("request %d queued behind the stall: latency %v < %v", r.op, r.latency(), min)
			}
		}
	}
	if queued < 10 {
		t.Fatalf("only %d requests were due during the stall", queued)
	}
}

// Each failure kind counts exactly once against the requests attempted,
// also when a request fails in more than one way.
func TestFailureAccounting(t *testing.T) {
	const length, drainFor = 20 * time.Millisecond, 30 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond, 5 * time.Millisecond}
	res := runOpen(context.Background(), due, length, drainFor, func(ctx context.Context, i int) outcome {
		switch i {
		case 1:
			return outcome{err: errors.New("connection reset")}
		case 2:
			return outcome{status: http.StatusInternalServerError}
		case 3: // finishes after the phase: unfinished
			time.Sleep(length + drainFor + 50*time.Millisecond)
			return outcome{status: http.StatusOK}
		case 5: // unfinished and a transport error: still one failure
			time.Sleep(length + drainFor + 50*time.Millisecond)
			return outcome{err: errors.New("timeout")}
		}
		return outcome{status: http.StatusOK}
	})
	res[4].wrong = true // the oracle disagreed
	var tl tally
	tl.add(res...)
	want := [numFailKinds]int{failNone: 1, failUnfinished: 2, failTransport: 1, failStatus: 1, failWrong: 1}
	if tl.attempted != 6 || tl.failed != want || tl.failures() != 5 {
		t.Errorf("attempted %d, failed %v (%d); want 6, %v (5)", tl.attempted, tl.failed, tl.failures(), want)
	}
}

// A pool entry answered differently from its first answer is a wrong
// answer, as is an answer with fewer than k results.
func TestConsistencyMarksWrongAnswers(t *testing.T) {
	pool0, pool1 := searchReq{K: 200, SmallK: 2, pool: 0}, searchReq{K: 200, SmallK: 2, pool: 1}
	ans := func(ids ...string) answer {
		var a answer
		for _, id := range ids {
			a.Results = append(a.Results, struct {
				ID string `json:"id"`
			}{id})
		}
		a.HPF = 1.5
		return a
	}
	m := &measure{seen: consistency{}}
	ops := []op{{search: &pool0}, {search: &pool0}, {search: &pool1}, {search: &pool1}, {search: &pool0}}
	rs := []result{
		{op: 0, outcome: outcome{status: 200, ans: ans("a", "b")}},
		{op: 1, outcome: outcome{status: 200, ans: ans("b", "a")}},
		{op: 2, outcome: outcome{status: 200, ans: ans("c", "d")}},
		{op: 3, outcome: outcome{status: 200, ans: ans("c")}},
		{op: 4, outcome: outcome{status: 200, ans: ans("a", "b")}},
	}
	m.check(rs, func(i int) op { return ops[i] })
	var got []bool
	for _, r := range rs {
		got = append(got, r.wrong)
	}
	if want := []bool{false, true, false, true, false}; !slices.Equal(got, want) {
		t.Errorf("wrong flags %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 30},
		{id: 3, parent: 1, name: "b", start: 20, end: 50},  // overlaps a
		{id: 4, parent: 1, name: "c", start: 90, end: 120}, // runs past root
		{id: 5, parent: 2, name: "a1", start: 12, end: 15},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - (40 + 10), 2: 20 - 3, 3: 30, 4: 30, 5: 3}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}

	rec := newRecorder()
	root := rec.begin(1, 0, "root")
	child := rec.timed(1, root, "child", func() { time.Sleep(2 * time.Millisecond) })
	rec.end(root)
	self := selfTimes(rec.spans)
	if rec.spans[child-1].parent != root || self[root]+rec.spans[child-1].dur() != rec.spans[root-1].dur() {
		t.Errorf("recorded spans %+v: self %v", rec.spans, self)
	}
}

func TestMissDeckMix(t *testing.T) {
	count := map[missShape]int{}
	for _, c := range missDeck() {
		count[c]++
	}
	byK := map[int]int{}
	exact, iadu := 0, 0
	for c, n := range count {
		byK[c.K] += n
		if c.spatial == "exact" {
			exact += n
		}
		if c.algo == "iadu" {
			iadu += n
		}
	}
	if byK[200] != 80 || byK[1000] != 15 || byK[2000] != 5 || exact != 16 || iadu != 20 {
		t.Errorf("deck mix K %v, exact %d, iadu %d", byK, exact, iadu)
	}
}

// A miss-mid run's open loop searches every base query once, in its
// deck slot's shape, each at a location of its own.
func TestMissSearchesCoverBases(t *testing.T) {
	c := dataset.DBpediaLike(corpusSeed)
	c.Places = 2500
	d, err := dataset.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan{d: d}
	if p.bases, err = d.GenQueries(missBases, 2000, corpusSeed); err != nil {
		t.Fatal(err)
	}
	g := &opGen{p: p, rng: rand.New(rand.NewSource(1))}
	deck := missDeck()
	used := make([]int, missBases)
	locs := map[[2]float64]bool{}
	for n := 0; n < missBases; n++ {
		s := g.searchOp().search
		locs[[2]float64{s.X, s.Y}] = true
		found := false
		for j, b := range p.bases {
			if math.Abs(s.X-b.Loc.X) < 10*missJitter && math.Abs(s.Y-b.Loc.Y) < 10*missJitter &&
				slices.Equal(s.Keywords, b.Keywords.Words(d.Dict)) {
				used[j]++
				if c := deck[j%100]; s.K != c.K || s.Spatial != c.spatial || s.Algo != c.algo {
					t.Errorf("base %d searched as K=%d %s %s, its slot is %+v", j, s.K, s.Spatial, s.Algo, c)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("search %d (%v, %v) is near no base query", n, s.X, s.Y)
		}
	}
	for j, u := range used {
		if u != 1 {
			t.Errorf("base %d searched %d times", j, u)
		}
	}
	if len(locs) != missBases {
		t.Errorf("%d distinct locations over %d searches", len(locs), missBases)
	}
}

// BENCHMARK.json lists exactly the workloads and the metrics this
// command reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, have []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("workloads %v, command has %v", names, have)
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%d metrics listed, command reports %d", len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: listed %s (%s), command reports %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
