package sweep

import (
	"reflect"
	"testing"

	"ivm/internal/modmath"
	"ivm/internal/rat"
)

// sweepPair sweeps one distance pair on e: the single-pair form of
// Engine.Grid that the differential tests and fuzz targets drive.
func sweepPair(e *Engine, m, nc, d1, d2 int) PairResult {
	var out PairResult
	e.run(1, func(w *worker, _ int) { out = w.sweepPair(m, nc, d1, d2) })
	return out
}

// sweepSectionPair is the single-pair form of Engine.SectionGrid.
func sweepSectionPair(e *Engine, m, s, nc, d1, d2 int) SectionPairResult {
	var out SectionPairResult
	e.run(1, func(w *worker, _ int) { out = w.sweepSectionPair(m, s, nc, d1, d2) })
	return out
}

// sweepSpec is the single-spec form of Engine.SpecGrid.
func sweepSpec(e *Engine, spec ConfigSpec) SpecResult {
	return e.SpecGrid([]ConfigSpec{spec})[0]
}

// referenceBW resolves configuration vector v = (d_1..d_N, b_1..b_N)
// in spec's shape (memory, CPU layout, policies) on the reference
// engine: a scalar simulation of exactly that placement.
func referenceBW(t testing.TB, spec ConfigSpec, v []int) rat.Rational {
	t.Helper()
	n := len(spec.Streams)
	fixed := spec
	fixed.Streams = make([]Stream, n)
	for i, st := range spec.Streams {
		fixed.Streams[i] = Stream{D: v[i], B: v[n+i], CPU: st.CPU}
	}
	res, err := Reference().Resolve(fixed)
	if err != nil {
		t.Fatal(err)
	}
	return res.BW
}

// The EXPERIMENTS.md cross-validation grid: every (m, n_c) the repo's
// strongest reference check runs, also the parallel acceptance grid.
var experimentsGrid = []struct{ m, nc int }{{8, 2}, {12, 3}, {13, 4}, {16, 4}}

// Engine.Grid must be indistinguishable from the reference engine's —
// same results in the same order, hence byte-identical rendered tables
// — for any worker count and cache configuration.
func TestEngineGridByteIdenticalToSequential(t *testing.T) {
	for _, g := range experimentsGrid {
		seq := Reference().Grid(g.m, g.nc)
		seqTable := Table(seq)
		for _, opt := range []Options{
			{Workers: 1, CacheSize: -1},
			{Workers: 4},
			{Workers: 4, CacheSize: 64},
			{Workers: 3, CacheSize: -1, CollectStats: true},
		} {
			eng := NewEngine(opt)
			par := eng.Grid(g.m, g.nc)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("m=%d nc=%d opts %+v: parallel results differ from the reference engine", g.m, g.nc, opt)
			}
			if got := Table(par); got != seqTable {
				t.Fatalf("m=%d nc=%d opts %+v: rendered table differs", g.m, g.nc, opt)
			}
		}
	}
}

func TestEngineSectionGridMatchesSequential(t *testing.T) {
	seq := Reference().SectionGrid(12, 4, 3)
	eng := NewEngine(Options{Workers: 4})
	par := eng.SectionGrid(12, 4, 3)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel section grid differs from the reference engine")
	}
	if SectionTable(seq) != SectionTable(par) {
		t.Fatal("rendered section tables differ")
	}
}

func TestEngineTriplesMatchesSequential(t *testing.T) {
	specs := TripleCensusSpecs(8, 2, [3]int{0, 1, 2})
	seq := Reference().SpecGrid(specs)
	eng := NewEngine(Options{Workers: 4})
	par := eng.SpecGrid(specs)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel triples differ from the reference engine")
	}
	if !reflect.DeepEqual(SummariseSpecGrid(seq), SummariseSpecGrid(par)) {
		t.Fatal("triple summaries differ")
	}
}

func TestEngineMetricsAccounting(t *testing.T) {
	eng := NewEngine(Options{Workers: 2})
	results := eng.Grid(12, 3)
	m := eng.Metrics()
	if m.PairsSwept != int64(len(results)) {
		t.Fatalf("PairsSwept = %d, want %d", m.PairsSwept, len(results))
	}
	starts := int64(0)
	for _, r := range results {
		starts += int64(r.Starts)
	}
	if m.AnalyticHits+m.CacheHits+m.CacheMisses != starts {
		t.Fatalf("analytic %d + hits %d + misses %d != %d starts",
			m.AnalyticHits, m.CacheHits, m.CacheMisses, starts)
	}
	if m.CacheMisses != m.CyclesFound {
		t.Fatalf("misses %d != cycles found %d: every miss simulates exactly one cycle", m.CacheMisses, m.CyclesFound)
	}
	if m.CacheHits == 0 {
		t.Fatal("the 12-bank grid has nontrivial unit orbits; expected cache hits")
	}
	if m.AnalyticHits == 0 {
		t.Fatal("the 12-bank grid is rich in conflict-free pairs; expected analytic hits")
	}
	if m.StepsSimulated == 0 || m.CacheEntries == 0 {
		t.Fatalf("metrics not accounted: %+v", m)
	}
	if hr := m.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", hr)
	}
	if tbl := m.Table(); tbl == "" {
		t.Fatal("empty metrics table")
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, CacheSize: -1})
	eng.Grid(8, 2)
	m := eng.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 0 || m.CacheEntries != 0 {
		t.Fatalf("disabled cache still counted: %+v", m)
	}
	if m.CyclesFound == 0 {
		t.Fatal("no cycles counted")
	}
}

// A pathologically small cache must evict, not break: results stay
// identical and the entry count stays bounded.
func TestEngineCacheEviction(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, CacheSize: 1})
	seq := Reference().Grid(12, 3)
	par := eng.Grid(12, 3)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("eviction changed results")
	}
	if n := eng.Metrics().CacheEntries; n > cacheShardCount {
		t.Fatalf("cache holds %d entries, bound is one per shard", n)
	}
}

// Engine.Stats returns a merged per-bank view covering exactly the
// simulated (non-cached) states.
func TestEngineCollectStats(t *testing.T) {
	eng := NewEngine(Options{Workers: 2, CacheSize: -1, CollectStats: true})
	eng.Grid(8, 2)
	col := eng.Stats()
	if col == nil {
		t.Fatal("CollectStats set but Stats() is nil")
	}
	if s := col.Snapshot(); s.Grants == 0 || s.ObservedClocks == 0 {
		t.Fatal("merged recorder is empty")
	}
	// Without the option no collector is built.
	plain := NewEngine(Options{Workers: 2})
	plain.Grid(8, 2)
	if plain.Stats() != nil {
		t.Fatal("Stats() must be nil when CollectStats is off")
	}
}

// The canonical key is constant on every isomorphism orbit: composing
// a unit scaling j -> u·j with any translation j -> j + t (all t are
// allowed on a sectionless memory) lands on the same representative.
func TestCanonicalKeyOrbitInvariant(t *testing.T) {
	w := &worker{e: NewEngine(Options{})}
	pairKey := func(m, d1, d2, b1, b2 int) cacheKey {
		cs := w.compile(PairSpec(m, 4, d1, d2))
		return cs.key([]int{b1, b2})
	}
	for _, m := range []int{5, 12, 16} {
		units := modmath.Units(m)
		for d1 := 0; d1 < m; d1++ {
			for d2 := 0; d2 < m; d2 += 3 {
				for b2 := 0; b2 < m; b2 += 5 {
					want := pairKey(m, d1, d2, 0, b2)
					for _, u := range units {
						for tr := 0; tr < m; tr += 4 {
							got := pairKey(m, u*d1, u*d2, tr, u*b2+tr)
							if got != want {
								t.Fatalf("m=%d (%d,%d;0,%d) under u=%d t=%d: key %+v != %+v",
									m, d1, d2, b2, u, tr, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// Triple keys are constant on affine orbits of (d1,d2,d3; b1,b2,b3);
// section keys under the full unit group composed with translations by
// multiples of s by default, and only under the section-fixing
// subgroup when Options.SectionFullUnits is pointed at false.
func TestCanonicalKeyOrbitInvariantTripleAndSection(t *testing.T) {
	w := &worker{e: NewEngine(Options{})}
	off := false
	wSub := &worker{e: NewEngine(Options{SectionFullUnits: &off})}
	tripleKey := func(m, d1, d2, d3, b2, b3 int) cacheKey {
		cs := w.compile(TripleSpec(m, 2, [3]int{d1, d2, d3}))
		return cs.key([]int{0, b2, b3})
	}
	sectionKey := func(wk *worker, m, s, d1, d2, b1, b2 int) cacheKey {
		cs := wk.compile(SectionPairSpec(m, s, 2, d1, d2))
		return cs.key([]int{b1, b2})
	}
	for _, m := range []int{8, 12} {
		for d1 := 0; d1 < m; d1 += 2 {
			for d2 := 1; d2 < m; d2 += 3 {
				for b2 := 0; b2 < m; b2 += 3 {
					want := tripleKey(m, d1, d2, 3, b2, 5)
					for _, u := range modmath.Units(m) {
						if got := tripleKey(m, u*d1, u*d2, u*3, u*b2, u*5); got != want {
							t.Fatalf("m=%d triple (%d,%d,3;%d,5) scaled by %d: %+v != %+v",
								m, d1, d2, b2, u, got, want)
						}
					}
					s := 4
					wantFull := sectionKey(w, m, s, d1, d2, 0, b2)
					for _, u := range modmath.Units(m) {
						for tr := 0; tr < m; tr += s {
							if got := sectionKey(w, m, s, u*d1, u*d2, tr, u*b2+tr); got != wantFull {
								t.Fatalf("m=%d s=%d (%d,%d;0,%d) under u=%d t=%d: %+v != %+v",
									m, s, d1, d2, b2, u, tr, got, wantFull)
							}
						}
					}
					wantSub := sectionKey(wSub, m, s, d1, d2, 0, b2)
					for _, u := range modmath.UnitsFixing(m, s) {
						if got := sectionKey(wSub, m, s, u*d1, u*d2, 0, u*b2); got != wantSub {
							t.Fatalf("m=%d s=%d subgroup (%d,%d,%d) scaled by %d: %+v != %+v",
								m, s, d1, d2, b2, u, got, wantSub)
						}
					}
				}
			}
		}
	}
}
