package sweep_test

import (
	"context"
	"sync"
	"testing"

	"ivm/internal/obs"
	"ivm/internal/sweep"
)

// recordSink is a concurrency-safe CacheSink counting its records.
type recordSink struct {
	mu sync.Mutex
	n  int
}

func (s *recordSink) Put(sweep.CacheRecord) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// seamSpecs is a fixed-placement batch mixing gated, gate-declined and
// sectioned placements, with repeated orbits so the cache both misses
// and hits.
func seamSpecs() []sweep.ConfigSpec {
	var specs []sweep.ConfigSpec
	add := func(spec sweep.ConfigSpec) {
		for b2 := 0; b2 < spec.M; b2++ {
			s := spec
			s.Streams = append([]sweep.Stream(nil), spec.Streams...)
			s.Streams[1].Sweep, s.Streams[1].B = false, b2
			specs = append(specs, s)
		}
	}
	for _, d := range [][2]int{{1, 2}, {1, 3}, {2, 6}, {1, 7}} {
		add(sweep.PairSpec(12, 3, d[0], d[1]))
	}
	add(sweep.SectionPairSpec(16, 4, 4, 1, 3))
	return specs
}

// TestObserverSeamConcurrent resolves one batch on four workers with
// every observer attached at once — Timeline, Provenance, Progress,
// ItemLatency, CacheSink and a request span sink — and checks they
// agree: every placement is counted once by each, and each leaf phase
// reaches the span sink exactly as often as the Timeline. Run it under
// -race: the seam is reached from every worker at once.
func TestObserverSeamConcurrent(t *testing.T) {
	specs := seamSpecs()
	tl := sweep.NewTimeline(0)
	prov := sweep.NewProvenance(0)
	prog := obs.NewProgress(prov)
	lat := obs.NewLatencyHist()
	store := &recordSink{}
	eng := sweep.NewEngine(sweep.Options{
		Workers: 4, Timeline: tl, Provenance: prov, Progress: prog,
		ItemLatency: lat, CacheSink: store,
	})
	tc := obs.NewTraceContext("seam")
	out, err := eng.ResolveBatchCtx(sweep.WithSpanSink(context.Background(), tc), specs)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(specs))
	if int64(len(out)) != n {
		t.Fatalf("%d answers for %d specs", len(out), n)
	}

	var resolved, analytic, sim int64
	for _, f := range prov.Snapshot().Families {
		resolved += f.Resolved
		analytic += f.Analytic
		sim += f.SimScalar + f.SimPacked
	}
	if resolved != n || prog.Snapshot().Done != n || lat.Count() != n {
		t.Errorf("placements %d: provenance resolved %d, progress done %d, latency count %d",
			n, resolved, prog.Snapshot().Done, lat.Count())
	}

	if tc.Dropped() != 0 {
		t.Fatalf("span sink dropped %d spans", tc.Dropped())
	}
	spans := map[string]int64{}
	for _, sp := range tc.Spans() {
		spans[sp.Name]++
	}
	slices := map[string]int64{}
	for _, ev := range tl.Events() {
		slices[ev.Kind.String()]++
	}
	m := eng.Metrics()
	probes := m.CacheHits + m.CacheMisses
	for _, c := range []struct {
		name string
		want int64
	}{
		{sweep.SpanGate, slices[sweep.SpanGate]},
		{sweep.SpanCanon, probes},
		{sweep.SpanCacheProbe, probes},
		{sweep.SpanSimulate, sim},
	} {
		if spans[c.name] != c.want || slices[c.name] != c.want {
			t.Errorf("%s: %d spans, %d timeline slices, want %d", c.name, spans[c.name], slices[c.name], c.want)
		}
	}
	if spans[sweep.SpanGate] < analytic || analytic == 0 {
		t.Errorf("%d gate spans for %d analytic answers", spans[sweep.SpanGate], analytic)
	}
	if probes != n-analytic || m.CacheHits == 0 {
		t.Errorf("%d cache probes (%d hits) for %d non-analytic placements", probes, m.CacheHits, n-analytic)
	}
	if sim != m.CyclesFound || int64(store.n) != sim {
		t.Errorf("%d simulations, %d cycles found, %d cache records", sim, m.CyclesFound, store.n)
	}
	if len(spans) != 4 {
		t.Errorf("span sink saw phases %v, want the four leaf phases only", spans)
	}
}
