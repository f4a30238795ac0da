package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"
)

// measure holds what answer checking needs across the phases of a run.
type measure struct {
	p      *plan
	srv    *server
	client *http.Client
	seen   consistency
	// expect caches the oracle's probe answers.
	expect []expected
}

type expected struct {
	ids []string
	hpf float64
}

// check marks wrong answers of a phase: a result list of the wrong length,
// or one that differs from an earlier answer to the same pool entry.
func (m *measure) check(rs []result, opAt func(int) op) {
	for i := range rs {
		r := &rs[i]
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		s := opAt(r.op).search
		if len(r.ans.Results) != s.SmallK || !m.seen.check(s, r.ans) {
			r.wrong = true
		}
	}
}

// probe re-issues the probe set and compares every answer with the
// oracle's.
func (m *measure) probe(ctx context.Context, orc *oracle) ([]result, error) {
	if m.expect == nil {
		for _, s := range m.p.probes {
			ids, hpf, err := orc.answer(s)
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			m.expect = append(m.expect, expected{ids, hpf})
		}
	}
	rs := make([]result, len(m.p.probes))
	for i := range m.p.probes {
		s := &m.p.probes[i]
		r := &rs[i]
		r.op, r.due = i, time.Now()
		r.sent = r.due
		r.outcome = do(ctx, m.client, m.srv.base, s)
		r.done = time.Now()
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		if want := m.expect[i]; !matches(r.ans, want.ids, want.hpf) {
			r.wrong = true
			fmt.Fprintf(os.Stderr, "propbench: probe %d (K=%d %s %s λ=%v): served %v hpf %v, oracle %v hpf %v\n",
				i, s.K, s.Spatial, s.Algo, s.Lambda, r.ans.ids(), r.ans.HPF, want.ids, want.hpf)
		}
	}
	return rs, nil
}
