package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share req; parent is the id of the span
// that caused this one (0 for a request's root).
type span struct {
	id, parent, req int
	name            string
	start, end      time.Duration // offsets from the recorder's origin
}

// recorder keeps every span of a traced run in memory; the run reads them
// out when it ends. It is used from one goroutine only.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(req, parent int, name string) int {
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, req: req, name: name, start: time.Since(r.origin)})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].end = time.Since(r.origin) }

// timed runs f under a span and returns the span's id.
func (r *recorder) timed(req, parent int, name string, f func()) int {
	id := r.begin(req, parent, name)
	f()
	r.end(id)
	return id
}

// durations groups the recorded spans' durations, in µs, by span name.
func (r *recorder) durations() map[string][]float64 {
	by := map[string][]float64{}
	for _, s := range r.spans {
		by[s.name] = append(by[s.name], us(s.dur()))
	}
	return by
}

// selfTimes returns each span's self time, keyed by span id: its duration
// minus the part of its interval that its children cover. Children may
// overlap one another (a parallel fan-out), so the covered part is the
// length of the union of their intervals clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = (s.end - s.start) - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the kids' intervals within p.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, p.start), min(k.end, p.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func (s span) dur() time.Duration { return s.end - s.start }
