package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// outcome is what one request returned, as seen by the client.
type outcome struct {
	// gotConn is when the transport handed the request a connection
	// (zero when it never got one).
	gotConn time.Time
	status  int
	err     error // transport error, or an unreadable body
	// wrong marks an answer that disagrees with the oracle or with an
	// earlier answer to the same request.
	wrong bool
	// appMS is the server's own time for the request (Server-Timing app),
	// and stageMS its retrieve+select+render entries.
	appMS, stageMS float64
	ans            answer
}

// result is one attempted request of a measured phase.
type result struct {
	op int // index into the phase's op list
	// due is when the schedule said the request should be sent, sent
	// when the generator actually issued it, done when the answer arrived.
	due, sent, done time.Time
	unfinished      bool // done after the phase ended
	outcome
}

// latency is the request's time from when it was due: a stall makes every
// request queued behind it late, and this is where that shows.
func (r result) latency() time.Duration { return r.done.Sub(r.due) }

// failure kinds; a result counts once, under the first kind that applies.
const (
	failNone = iota
	failUnfinished
	failTransport
	failStatus
	failWrong
	numFailKinds
)

func (r result) failure() int {
	switch {
	case r.unfinished:
		return failUnfinished
	case r.err != nil:
		return failTransport
	case r.status < 200 || r.status > 299:
		return failStatus
	case r.wrong:
		return failWrong
	}
	return failNone
}

// tally counts attempted requests and failures by kind.
type tally struct {
	attempted int
	failed    [numFailKinds]int
}

func (t *tally) add(rs ...result) {
	for _, r := range rs {
		t.attempted++
		t.failed[r.failure()]++
	}
}

func (t *tally) failures() int { return t.attempted - t.failed[failNone] }

// poisson returns the arrival offsets of a Poisson process at rate per
// second over [0, d), conditioned on its expected count round(rate·d): that
// many uniform offsets, sorted. The fixed count keeps every seed's run at
// the same number of requests.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	slices.Sort(out)
	return out
}

// sendFunc issues op i and reports its outcome; it records gotConn itself.
type sendFunc func(ctx context.Context, i int) outcome

// runOpen drives an open loop: op i is issued at start+due[i] whatever
// the state of earlier requests, and timed from that due time. Requests
// still outstanding at start+length+drain are marked unfinished; runOpen
// still waits for them, so the server is quiet when it returns. When ctx
// ends it stops issuing and returns the requests issued so far.
func runOpen(ctx context.Context, due []time.Duration, length, drain time.Duration, send sendFunc) []result {
	res := make([]result, len(due))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i, d := range due {
		at := start.Add(d)
		if w := time.Until(at); w > 0 {
			select {
			case <-time.After(w):
			case <-ctx.Done():
				wg.Wait()
				return res[:i]
			}
		}
		res[i].op, res[i].due = i, at
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			r.sent = time.Now()
			r.outcome = send(ctx, r.op)
			r.done = time.Now()
		}(&res[i])
	}
	wg.Wait()
	end := start.Add(length + drain)
	for i := range res {
		res[i].unfinished = res[i].done.After(end)
	}
	return res
}

// runClosed drives a closed loop: each worker issues its next op only when
// the previous one has answered. next(w) returns worker w's next op index.
// It returns every result and how many requests the phase completed. A
// request in flight when the phase ends is waited for and counts the share
// of it that fell inside the phase: with requests of up to a few hundred
// milliseconds, counting it whole or not at all would swing a short
// phase's rate by several percent.
func runClosed(ctx context.Context, workers int, length time.Duration, next func(w int) int, send sendFunc) ([]result, float64) {
	var (
		mu  sync.Mutex
		res []result
		wg  sync.WaitGroup
	)
	end := time.Now().Add(length)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				r := result{op: next(w)}
				r.due = time.Now()
				r.sent = r.due
				r.outcome = send(ctx, r.op)
				r.done = time.Now()
				mu.Lock()
				res = append(res, r)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	completed := 0.0
	for _, r := range res {
		switch {
		case r.failure() != failNone:
		case !r.done.After(end):
			completed++
		case r.sent.Before(end):
			completed += float64(end.Sub(r.sent)) / float64(r.done.Sub(r.sent))
		}
	}
	return res, completed
}

// lateness returns the p99 of send−due, in ms, over an open-loop phase and
// over its first and last quarter (by due order).
func lateness(res []result) (all, first, last float64) {
	p99 := func(rs []result) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = ms(r.sent.Sub(r.due))
		}
		return percentile(xs, 0.99)
	}
	q := len(res) / 4
	return p99(res), p99(res[:q]), p99(res[len(res)-q:])
}

// latenessGrows reports whether the generator fell behind its schedule
// during the phase. A backlog keeps growing, so its last quarter runs
// late by more than twice its first and by more than scheduling jitter
// explains (10 ms).
func latenessGrows(first, last float64) bool { return last > 2*first && last > first+10 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
