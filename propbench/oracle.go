package main

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/textctx"
)

// oracle answers searches from scratch in the benchmark process:
// Retrieve → core.ComputeScores → core.Select → Evaluate, with the same
// maximal squared-grid table the engine builds by default.
type oracle struct {
	d     *dataset.Dataset
	table *grid.SquaredTable
}

// engineGridTableCells is engine.Options.GridTableCells's default.
const engineGridTableCells = 1024

func newOracle(d *dataset.Dataset) *oracle {
	return &oracle{d: d, table: grid.NewSquaredTable(grid.SideForCells(engineGridTableCells))}
}

func spatialMethod(name string) core.SpatialMethod {
	switch name {
	case "exact":
		return core.SpatialExact
	case "radial":
		return core.SpatialRadialGrid
	}
	return core.SpatialSquaredGrid
}

// keywordSet resolves words against d's dictionary as the engine does;
// unknown words match nothing.
func keywordSet(d *dataset.Dataset, words []string) textctx.Set {
	var ids []textctx.ItemID
	for _, w := range words {
		if id, ok := d.Dict.Lookup(w); ok {
			ids = append(ids, id)
		}
	}
	return textctx.NewSet(ids...)
}

// answer returns the selected place IDs, in order, and HPF.
func (o *oracle) answer(s searchReq) ([]string, float64, error) {
	loc := geo.Pt(s.X, s.Y)
	places, err := o.d.Retrieve(dataset.Query{Loc: loc, Keywords: keywordSet(o.d, s.Keywords)}, s.K)
	if err != nil {
		return nil, 0, err
	}
	opt := core.ScoreOptions{Gamma: 0.5, Spatial: spatialMethod(s.Spatial)}
	if opt.Spatial == core.SpatialSquaredGrid {
		opt.SquaredTable = o.table
	}
	ss, err := core.ComputeScores(loc, places, opt)
	if err != nil {
		return nil, 0, err
	}
	sel, err := core.Select(core.Algorithm(s.Algo), ss, core.Params{K: s.SmallK, Lambda: s.Lambda, Gamma: 0.5})
	if err != nil {
		return nil, 0, err
	}
	ids := make([]string, len(sel.Indices))
	for i, idx := range sel.Indices {
		ids[i] = ss.Places[idx].ID
	}
	return ids, ss.Evaluate(sel.Indices, s.Lambda).Total, nil
}

// matches reports whether a served answer equals the oracle's: the same
// IDs in the same order and a bit-identical HPF.
func matches(a answer, ids []string, hpf float64) bool {
	return slices.Equal(a.ids(), ids) && math.Float64bits(a.HPF) == math.Float64bits(hpf)
}

// consistency marks answers that disagree with the first answer to the
// same pool entry: the corpus never changes during a run, so a cached or
// memoised answer must never change either.
type consistency map[int]answer

func (c consistency) check(s *searchReq, a answer) bool {
	if s.pool < 0 {
		return true
	}
	first, ok := c[s.pool]
	if !ok {
		c[s.pool] = a
		return true
	}
	return matches(a, first.ids(), first.HPF)
}
