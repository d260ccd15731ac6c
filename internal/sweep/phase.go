package sweep

// The answer route's one observer seam. Every observation of a
// resolution passes through three points on the worker: phase
// boundaries (begin/end), one record per resolved placement
// (resolved), and item end (itemDone). This file holds the phase table
// all consumers share and the per-worker probe that opens and closes
// a phase. A closed phase feeds two consumers:
//
//   - the Timeline (Options.Timeline) takes every phase, stamped with
//     worker and family;
//   - a request's SpanSink (WithSpanSink) takes only the four leaf
//     phases — gate, canonicalise, cache-probe, simulate — which
//     together cover a whole resolution; item encloses them and
//     find-cycle nests inside simulate.
//
// Both consumers are optional: a nil Timeline and an absent sink leave
// the probe a pair of nil checks that allocate nothing.

import (
	"context"
	"encoding/json"
	"fmt"
)

// Phase names one observed step of the answer route. Slices carry a
// duration (Item, Gate, Canon, CacheProbe, Simulate, FindCycle); the
// instants (AnalyticHit, CacheHit, CacheMiss) mark the verdict of one
// placement.
type Phase int

// The phases, in nesting order, then the verdict instants.
const (
	// PhaseItem spans one work item (a sweep unit) on a worker.
	PhaseItem Phase = iota
	// PhaseGate spans the analytic classifier-gate probe.
	PhaseGate
	// PhaseCanon spans the canonicalisation of one placement into its
	// cache key.
	PhaseCanon
	// PhaseCacheProbe spans the canonical-key cache lookup.
	PhaseCacheProbe
	// PhaseSimulate spans one simulation, steady-state detection
	// included.
	PhaseSimulate
	// PhaseFindCycle spans one steady-state detection run.
	PhaseFindCycle
	// PhaseAnalyticHit marks a placement answered by the theorem-driven
	// classifier gate, bypassing cache and simulator entirely.
	PhaseAnalyticHit
	// PhaseCacheHit marks a placement answered from the memo cache.
	PhaseCacheHit
	// PhaseCacheMiss marks a placement the cache missed and simulated.
	PhaseCacheMiss
)

// The leaf phase names, exported so span consumers can match them
// without string literals.
const (
	// SpanGate is the analytic classifier-gate probe.
	SpanGate = "gate"
	// SpanCanon is the canonicalisation of one placement into its key.
	SpanCanon = "canonicalise"
	// SpanCacheProbe is the canonical-key cache lookup.
	SpanCacheProbe = "cache-probe"
	// SpanSimulate is one simulation, steady-state detection included.
	SpanSimulate = "simulate"
)

// phaseNames is the one name table of the phases.
var phaseNames = [...]string{
	PhaseItem:        "item",
	PhaseGate:        SpanGate,
	PhaseCanon:       SpanCanon,
	PhaseCacheProbe:  SpanCacheProbe,
	PhaseSimulate:    SpanSimulate,
	PhaseFindCycle:   "find-cycle",
	PhaseAnalyticHit: "analytic-hit",
	PhaseCacheHit:    "cache-hit",
	PhaseCacheMiss:   "cache-miss",
}

// String names the phase ("item", "cache-hit", ...).
func (p Phase) String() string {
	if p < 0 || int(p) >= len(phaseNames) {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Instant reports whether the phase is a verdict instant (no
// duration).
func (p Phase) Instant() bool { return p >= PhaseAnalyticHit }

// leaf reports whether a request's SpanSink receives the phase.
func (p Phase) leaf() bool { return p >= PhaseGate && p <= PhaseSimulate }

// MarshalJSON encodes the phase by name, keeping snapshots readable.
func (p Phase) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON inverts MarshalJSON.
func (p *Phase) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range phaseNames {
		if name == s {
			*p = Phase(i)
			return nil
		}
	}
	return fmt.Errorf("sweep: unknown phase %q", s)
}

// SpanSink receives the leaf phases of a resolution as named spans,
// so a serving layer can reconstruct one request's anatomy. It rides a
// context.Context into Engine.ResolveCtx/ResolveBatchCtx; like
// ProgressSink, the interface keeps internal/sweep free of an obs
// dependency (obs.TraceContext is the implementation, and obs imports
// sweep). Implementations must be safe for concurrent use: a batch
// records from every worker.
type SpanSink interface {
	// Start returns a span-start token (implementation-defined clock,
	// typically nanoseconds since the request began).
	Start() int64
	// Span records a named span begun at a Start token and ending now.
	Span(name string, start int64)
}

// spanKey is the context key of the resolve path's span sink.
type spanKey struct{}

// WithSpanSink returns a context carrying the span sink; pass it to
// ResolveCtx/ResolveBatchCtx to have the resolve phases recorded.
func WithSpanSink(ctx context.Context, s SpanSink) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanSinkFrom extracts the span sink from a context (nil when absent,
// which the resolve path treats as detached).
func SpanSinkFrom(ctx context.Context) SpanSink {
	s, _ := ctx.Value(spanKey{}).(SpanSink)
	return s
}

// phaseSpan is an open phase: which one, and its start on the
// Timeline's and the span sink's clocks.
type phaseSpan struct {
	phase  Phase
	tl, sp int64
}

// begin opens a phase on the worker's probe.
func (w *worker) begin(p Phase) phaseSpan {
	s := phaseSpan{phase: p, tl: w.e.opt.Timeline.Start()}
	if w.sp != nil && p.leaf() {
		s.sp = w.sp.Start()
	}
	return s
}

// end closes a phase opened by begin: a leaf phase goes to the span
// sink, every phase to the Timeline (item -1: the item slice itself is
// recorded by itemDone).
func (w *worker) end(s phaseSpan, family string) {
	if w.sp != nil && s.phase.leaf() {
		w.sp.Span(phaseNames[s.phase], s.sp)
	}
	w.e.opt.Timeline.Slice(w.id, s.phase, s.tl, -1, family)
}
