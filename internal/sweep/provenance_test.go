package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Conservation: every placement the engine resolves must be
// attributed to exactly one provenance path, so per family
// analytic + cache hits + simulations == placements resolved, and the
// provenance counters must agree with the engine's own metrics.
func checkConservation(t *testing.T, eng *Engine, prov *Provenance) {
	t.Helper()
	snap := prov.Snapshot()
	m := eng.Metrics()
	for name, f := range snap.Families {
		if got := f.Analytic + f.CacheHits + f.SimScalar + f.SimPacked; got != f.Resolved {
			t.Errorf("%s: path sum %d != resolved %d", name, got, f.Resolved)
		}
		em := m.Family(name)
		if em.Hits+em.Misses+em.Analytic == 0 {
			// Cache disabled: the engine keeps no per-family counters,
			// so only the path-sum invariant above applies.
			continue
		}
		if f.Resolved != em.Hits+em.Misses+em.Analytic {
			t.Errorf("%s: provenance resolved %d != engine hits+misses+analytic %d",
				name, f.Resolved, em.Hits+em.Misses+em.Analytic)
		}
		if f.Analytic != em.Analytic {
			t.Errorf("%s: provenance analytic %d != engine analytic %d", name, f.Analytic, em.Analytic)
		}
		if f.CacheHits != em.Hits {
			t.Errorf("%s: provenance cache hits %d != engine hits %d", name, f.CacheHits, em.Hits)
		}
		if f.SimScalar+f.SimPacked != em.Misses {
			t.Errorf("%s: provenance sims %d != engine misses %d", name, f.SimScalar+f.SimPacked, em.Misses)
		}
	}
	for name, em := range m.Families {
		if _, ok := snap.Families[name]; !ok && em.Hits+em.Misses+em.Analytic > 0 {
			t.Errorf("family %s has engine traffic but no provenance", name)
		}
	}
}

func TestProvenanceConservationPairs(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Workers: 3, Provenance: prov})
	const m, nc = 13, 4
	eng.Grid(m, nc)
	checkConservation(t, eng, prov)
	// Every pair sweeps its m starts, so the pair family must have
	// resolved exactly pairs*m placements.
	want := int64(len(gridPairs(m, nc)) * m)
	if got := prov.Snapshot().Families["pair"].Resolved; got != want {
		t.Errorf("pair resolved = %d, want %d", got, want)
	}
}

func TestProvenanceConservationTriples(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Workers: 3, Provenance: prov})
	eng.SpecGrid(TripleSpecs(7, 2))
	checkConservation(t, eng, prov)
}

func TestProvenanceConservationSections(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Workers: 3, Provenance: prov})
	eng.SectionGrid(12, 3, 3)
	checkConservation(t, eng, prov)
	if _, ok := prov.Snapshot().Families["section"]; !ok {
		t.Fatal("no section family recorded")
	}
}

func TestProvenanceConservationStream4(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Workers: 3, Provenance: prov})
	eng.SpecGrid(NStreamSpecs(4, 1, 4))
	checkConservation(t, eng, prov)
	f, ok := prov.Snapshot().Families["stream4"]
	if !ok {
		t.Fatal("no stream4 family recorded")
	}
	// The miss-attribution view must name the top unexplained orbits
	// of the worst family — that is the view's whole point.
	if f.SimScalar+f.SimPacked > 0 && len(f.UnexplainedOrbits) == 0 {
		t.Error("stream4 simulated placements but reported no unexplained orbits")
	}
}

// Conservation must also hold when caching is disabled (everything
// simulates) and when the analytic gate is off.
func TestProvenanceConservationNoCacheNoGate(t *testing.T) {
	off := false
	prov := NewProvenance(0)
	eng := NewEngine(Options{Workers: 2, CacheSize: -1, Analytic: &off, Provenance: prov, PackedKernel: &off})
	eng.Grid(8, 2)
	checkConservation(t, eng, prov)
	f := prov.Snapshot().Families["pair"]
	if f.Analytic != 0 || f.CacheHits != 0 || f.SimPacked != 0 {
		t.Errorf("gate+cache off must simulate on the scalar kernel only: %+v", f)
	}
	if f.SimScalar == 0 || f.SimScalar != f.Resolved {
		t.Errorf("sim-scalar %d must carry all %d resolutions", f.SimScalar, f.Resolved)
	}
}

// The theorem table must attribute analytic answers to the gate's
// theorem identifiers and sum to the analytic path count.
func TestProvenanceTheoremAttribution(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Provenance: prov})
	eng.Grid(16, 4)
	f := prov.Snapshot().Families["pair"]
	if f.Analytic == 0 {
		t.Fatal("theorem-dense grid produced no analytic answers")
	}
	var sum int64
	for id, n := range f.Theorems {
		switch id {
		case "theorem-2", "theorem-3", "eq-29":
		default:
			t.Errorf("unknown theorem id %q", id)
		}
		sum += n
	}
	if sum != f.Analytic {
		t.Errorf("theorem hits sum %d != analytic %d", sum, f.Analytic)
	}
}

// Orbit accounting: histogram placements must equal hits+misses with
// orbit rows, singleton count must match the size-1 bucket, and the
// top-orbit list must be sorted by explained placements.
func TestProvenanceOrbitAccounting(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Workers: 2, Provenance: prov})
	eng.Grid(13, 4)
	f := prov.Snapshot().Families["pair"]
	var placements, orbits int64
	for _, b := range f.OrbitSizes {
		placements += b.Placements
		orbits += b.Orbits
		if b.Lo == 1 && b.Orbits != f.SingletonOrbits {
			t.Errorf("size-1 bucket %d != singleton orbits %d", b.Orbits, f.SingletonOrbits)
		}
	}
	if orbits != f.Orbits {
		t.Errorf("histogram orbits %d != orbits %d", orbits, f.Orbits)
	}
	if placements != f.CacheHits+f.SimScalar+f.SimPacked {
		t.Errorf("histogram placements %d != cache+sim %d", placements, f.CacheHits+f.SimScalar+f.SimPacked)
	}
	for i := 1; i < len(f.TopOrbits); i++ {
		if f.TopOrbits[i].Size > f.TopOrbits[i-1].Size {
			t.Errorf("top orbits unsorted at %d", i)
		}
	}
	for _, o := range f.TopOrbits {
		if o.Size != o.Hits+o.Misses {
			t.Errorf("orbit %s: size %d != hits+misses %d", o.Label(), o.Size, o.Hits+o.Misses)
		}
	}
}

// The snapshot must be deterministic across identical runs (map
// iteration must not leak into the ordered views).
func TestProvenanceSnapshotDeterministic(t *testing.T) {
	// Single worker: with a parallel pool two slots can race to miss
	// the same canonical key, making the hit/miss split (legitimately)
	// schedule-dependent.
	run := func() ProvenanceSnapshot {
		prov := NewProvenance(0)
		eng := NewEngine(Options{Workers: 1, Provenance: prov})
		eng.Grid(12, 3)
		eng.SpecGrid(TripleSpecs(7, 2))
		return prov.Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("snapshots differ across identical runs")
	}
	if a.Table() != b.Table() {
		t.Error("tables differ across identical runs")
	}
}

// The orbit capacity bound must drop per-orbit rows, count them, and
// leave the exact path counters untouched.
func TestProvenanceOrbitCapacity(t *testing.T) {
	prov := NewProvenance(4)
	eng := NewEngine(Options{Workers: 1, Provenance: prov})
	eng.Grid(13, 4)
	snap := prov.Snapshot()
	if snap.DroppedOrbits == 0 {
		t.Fatal("tiny capacity dropped nothing")
	}
	var orbits int64
	for _, f := range snap.Families {
		orbits += f.Orbits
	}
	if orbits > 4 {
		t.Errorf("tracked %d orbits past capacity 4", orbits)
	}
	checkConservation(t, eng, prov)
}

// JSON: the provenance snapshot must round-trip inside the engine
// snapshot, and be absent when no recorder was attached.
func TestProvenanceSnapshotJSON(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Provenance: prov})
	eng.Grid(8, 2)
	s := eng.Snapshot()
	if s.Provenance == nil {
		t.Fatal("snapshot lacks provenance despite attached recorder")
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Provenance, s.Provenance) {
		t.Error("provenance drifted through JSON")
	}
	plain := NewEngine(Options{})
	plain.Grid(8, 2)
	if plain.Snapshot().Provenance != nil {
		t.Error("detached engine snapshot carries provenance")
	}
}

func TestProvenanceCSV(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Provenance: prov})
	eng.Grid(13, 4)
	var buf bytes.Buffer
	if err := prov.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "family,kind,label,count,placements,clocks" {
		t.Errorf("bad CSV header %q", lines[0])
	}
	for _, want := range []string{"pair,path,analytic", "pair,path,cache", "pair,path,sim-packed", "pair,theorem,", "pair,orbit_size,"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV lacks %q rows", want)
		}
	}
}

// The attribution table must name the headline views.
func TestProvenanceTable(t *testing.T) {
	prov := NewProvenance(0)
	eng := NewEngine(Options{Provenance: prov})
	eng.Grid(13, 4)
	out := prov.Snapshot().Table()
	for _, want := range []string{"path split", "analytic attribution", "orbit sizes", "unexplained orbits", "pair"} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution table lacks %q:\n%s", want, out)
		}
	}
}

// A detached (nil) provenance recorder must be free: no allocations
// from any record call on the hot path, mirroring the detached-tracer
// guarantee of internal/obs/overhead_test.go.
func TestDetachedProvenanceAllocatesNothing(t *testing.T) {
	var p *Provenance
	vec := []int{1, 6, 0, 7}
	if allocs := testing.AllocsPerRun(500, func() {
		p.Record(Resolution{Family: "pair", Path: PathAnalytic, Theorem: "theorem-3"}, 13, 0, 4, nil)
		p.Record(Resolution{Family: "pair", Path: PathCache}, 13, 0, 4, vec)
		p.Record(Resolution{Family: "pair", Path: PathSimPacked, CycleLength: 13, Clocks: 26}, 13, 0, 4, vec)
	}); allocs != 0 {
		t.Errorf("detached provenance allocates %.1f objects/record, want 0", allocs)
	}
}

// BenchmarkProvenanceAttached quantifies the recording cost against
// the free detached path (BenchmarkProvenanceDetached).
func BenchmarkProvenanceDetached(b *testing.B) {
	eng := NewEngine(Options{Workers: 1})
	w := &worker{e: eng}
	cs := w.compile(PairSpec(13, 4, 1, 6))
	bb := []int{0, 7}
	w.bw(cs, bb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.bw(cs, bb)
	}
}

// BenchmarkProvenanceAttached is the same warm resolver loop with a
// live recorder taking one record per call.
func BenchmarkProvenanceAttached(b *testing.B) {
	eng := NewEngine(Options{Workers: 1, Provenance: NewProvenance(0)})
	w := &worker{e: eng}
	cs := w.compile(PairSpec(13, 4, 1, 6))
	bb := []int{0, 7}
	w.bw(cs, bb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.bw(cs, bb)
	}
}
