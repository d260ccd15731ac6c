package sweep

import (
	"sort"
	"sync"
	"time"
)

// Worker timeline: when Options.Timeline is set, the engine records
// every phase of the answer route (phase.go) — work-item slices, gate,
// canonicalisation, cache-probe, simulation and steady-state detection
// slices, and the per-placement verdict instants — as wall-clock events
// relative to the timeline's epoch, stamped with the worker and the
// configuration family. The recording is lock-per-event and off by
// default (a nil Timeline is a no-op on every method), so the sweeping
// hot path pays nothing unless a CLI asked for a trace.
// obs.WorkerTrack renders the events as a Chrome trace_event process.

// TimelineEvent is one recorded slice or instant.
type TimelineEvent struct {
	Worker int   `json:"worker"` // pool slot
	Kind   Phase `json:"kind"`
	// StartNS is nanoseconds since the timeline's epoch; DurNS is the
	// slice duration (0 for instants).
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns,omitempty"`
	// Item is the work-item index of an item slice, -1 on every other
	// phase.
	Item int `json:"item"`
	// Family is the configuration family being swept ("" on item
	// slices, which may span several families).
	Family string `json:"family,omitempty"`
}

// DefaultTimelineCapacity bounds a Timeline built by NewTimeline(0).
const DefaultTimelineCapacity = 1 << 18

// Timeline is a bounded recorder of engine worker events. All methods
// are safe for concurrent use and are no-ops on a nil receiver, which
// is how the engine runs untraced.
type Timeline struct {
	mu      sync.Mutex
	epoch   time.Time
	cap     int
	events  []TimelineEvent
	dropped int64
}

// NewTimeline builds a recorder holding at most capacity events
// (0 selects DefaultTimelineCapacity); once full, further events are
// counted as dropped rather than recorded.
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultTimelineCapacity
	}
	return &Timeline{epoch: time.Now(), cap: capacity}
}

// Start returns the current timestamp in nanoseconds since the
// timeline's epoch — the StartNS a later Slice call closes over. Zero
// on a nil timeline.
func (t *Timeline) Start() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Slice records a span that began at startNS (a Start stamp) and ends
// now.
func (t *Timeline) Slice(worker int, kind Phase, startNS int64, item int, family string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{
		Worker: worker, Kind: kind, StartNS: startNS,
		DurNS: time.Since(t.epoch).Nanoseconds() - startNS,
		Item:  item, Family: family,
	})
}

// Instant records a zero-duration event stamped now. Instants mark a
// placement's verdict, not a work item, so their Item is -1.
func (t *Timeline) Instant(worker int, kind Phase, family string) {
	if t == nil {
		return
	}
	t.record(TimelineEvent{
		Worker: worker, Kind: kind, StartNS: time.Since(t.epoch).Nanoseconds(), Item: -1, Family: family,
	})
}

func (t *Timeline) record(e TimelineEvent) {
	t.mu.Lock()
	if len(t.events) >= t.cap {
		t.dropped++
	} else {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time
// (ties broken by worker, then kind), nil on a nil timeline.
func (t *Timeline) Events() []TimelineEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]TimelineEvent(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Dropped counts events lost to the capacity bound (0 on nil).
func (t *Timeline) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len reports how many events are recorded (0 on nil).
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
