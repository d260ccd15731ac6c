package sweep

import (
	"fmt"

	"ivm/internal/core"
	"ivm/internal/rat"
	"ivm/internal/stream"
	"ivm/internal/textplot"
)

// Section-system sweeps: two ports of one CPU against an (m, s, n_c)
// memory, validating the section results (Theorems 8/9, Eq. 31/32)
// exactly as Engine.Grid does for the sectionless theorems.

// SectionPairResult compares section-theory predictions and simulation
// for one distance pair.
type SectionPairResult struct {
	M, S, NC, D1, D2 int
	// TheoryFree: SectionConflictFree found a conflict-free start.
	TheoryFree bool
	// TheoryStart is that start offset (meaningful when TheoryFree).
	TheoryStart int
	// SimFreeStarts counts the relative starts whose cyclic state is
	// conflict free; SimStarts is the number swept.
	SimFreeStarts, SimStarts int
	// Agree: every claim that was checkable held (constructed starts
	// simulate to b_eff = 2; per-placement disjoint-set predictions
	// match).
	Agree bool
}

// sweepSectionPairWith sweeps all relative starts of one section pair
// through the bandwidth resolver bw (stream 2 at b2) and checks every
// claim the section theorems make about them.
func sweepSectionPairWith(m, s, nc, d1, d2 int, bw func(b2 int) rat.Rational) SectionPairResult {
	res := SectionPairResult{M: m, S: s, NC: nc, D1: d1, D2: d2, Agree: true}
	res.TheoryFree, res.TheoryStart = core.SectionConflictFree(m, s, nc, d1, d2)
	two := rat.New(2, 1)
	s1 := stream.Infinite(m, 0, d1)
	for b2 := 0; b2 < m; b2++ {
		free := bw(b2).Equal(two)
		res.SimStarts++
		if free {
			res.SimFreeStarts++
		}
		// Per-placement check where the theory speaks: disjoint access
		// sets (only section conflicts possible).
		s2 := stream.Infinite(m, b2, d2)
		if !stream.Disjoint(s1, s2) || stream.SectionsDisjoint(s1, s2, s) {
			continue
		}
		if want := core.SectionDisjointSteadyFree(s, 0, d1, b2, d2); want != free {
			res.Agree = false
		}
	}
	// The constructed start must simulate conflict free.
	if res.TheoryFree && !bw(res.TheoryStart).Equal(two) {
		res.Agree = false
	}
	return res
}

// SectionTable renders a section grid.
func SectionTable(results []SectionPairResult) string {
	t := &textplot.Table{Header: []string{"d1", "d2", "theory free@", "sim free starts", "agree"}}
	for _, r := range results {
		at := "-"
		if r.TheoryFree {
			at = fmt.Sprintf("b2=%d", r.TheoryStart)
		}
		t.Add(r.D1, r.D2, at, fmt.Sprintf("%d/%d", r.SimFreeStarts, r.SimStarts), r.Agree)
	}
	return t.String()
}
