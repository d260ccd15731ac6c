package sweep

import (
	"sync/atomic"
	"testing"
)

// countSink is an allocation-free SpanSink that only counts spans.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Start() int64       { return 0 }
func (s *countSink) Span(string, int64) { s.n.Add(1) }

// TestResolveAllocsWarmSectionHit guards the allocation cost of the
// real resolve path — a warm sectioned cache hit on one worker —
// detached and with each observer attached. The bounds are the costs
// the path had before its observers shared one seam; the seam must not
// add any.
func TestResolveAllocsWarmSectionHit(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		sp   SpanSink
		max  float64
	}{
		{"detached", Options{Workers: 1}, nil, 2},
		{"timeline", Options{Workers: 1, Timeline: NewTimeline(0)}, nil, 2},
		{"span sink", Options{Workers: 1}, &countSink{}, 2},
		{"provenance", Options{Workers: 1, Provenance: NewProvenance(0)}, nil, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &worker{e: NewEngine(tc.opt), sp: tc.sp}
			cs := w.compile(SectionPairSpec(16, 4, 4, 1, 3))
			b := []int{0, 5}
			w.resolveSpans(cs, b) // simulate once: every later call hits
			if r := w.resolveSpans(cs, b); r.Path != PathCache {
				t.Fatalf("warm resolve took path %v, want cache", r.Path)
			}
			if n := testing.AllocsPerRun(200, func() { w.resolveSpans(cs, b) }); n > tc.max {
				t.Errorf("warm sectioned cache hit allocates %v per resolve, want <= %v", n, tc.max)
			}
		})
	}
}
