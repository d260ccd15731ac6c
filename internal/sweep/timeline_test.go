package sweep

import (
	"encoding/json"
	"sort"
	"testing"
)

// TestTimelineRecordsEngineWork checks the Timeline against the
// engine's own counters, on the default engine and on a
// Reference()-style one (cache and gate off), where every placement
// simulates uncached and still gets its simulate slice.
func TestTimelineRecordsEngineWork(t *testing.T) {
	want := Reference().Grid(12, 3)
	for _, tc := range []struct {
		name   string
		opt    Options
		cached bool
	}{
		{"default", Options{Workers: 3}, true},
		{"reference", Reference().Options(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl := NewTimeline(0)
			tc.opt.Timeline = tl
			e := NewEngine(tc.opt)
			got := e.Grid(12, 3)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tracing changed the sweep output at %d: %+v != %+v", i, got[i], want[i])
				}
			}

			events := tl.Events()
			if len(events) == 0 {
				t.Fatal("timeline recorded nothing")
			}
			counts := map[Phase]int{}
			items := map[int]bool{}
			for _, ev := range events {
				counts[ev.Kind]++
				if ev.Kind == PhaseItem {
					if ev.Item < 0 || ev.Item >= len(want) {
						t.Fatalf("item slice with index %d outside the grid of %d", ev.Item, len(want))
					}
					items[ev.Item] = true
				}
				if !ev.Kind.Instant() && ev.DurNS < 0 {
					t.Fatalf("negative duration: %+v", ev)
				}
				if ev.Kind.Instant() && (ev.DurNS != 0 || ev.Item != -1) {
					t.Fatalf("instant with a duration or an item: %+v", ev)
				}
			}
			// Every work item got a slice, exactly once.
			if len(items) != len(want) || counts[PhaseItem] != len(want) {
				t.Errorf("item slices cover %d/%d items (%d slices)", len(items), len(want), counts[PhaseItem])
			}
			// Hit/miss instants agree with the engine's own counters, and every
			// placement was canonicalised.
			m := e.Metrics()
			if int64(counts[PhaseCacheHit]) != m.CacheHits || int64(counts[PhaseCacheMiss]) != m.CacheMisses {
				t.Errorf("timeline saw %d hits / %d misses, metrics say %d / %d",
					counts[PhaseCacheHit], counts[PhaseCacheMiss], m.CacheHits, m.CacheMisses)
			}
			if int64(counts[PhaseCanon]) != m.CacheHits+m.CacheMisses {
				t.Errorf("%d canonicalise slices for %d cache probes",
					counts[PhaseCanon], m.CacheHits+m.CacheMisses)
			}
			// Every simulation: one simulate slice and one find-cycle slice,
			// one per cycle found; with the cache on, each miss simulated.
			if int64(counts[PhaseSimulate]) != m.CyclesFound || int64(counts[PhaseFindCycle]) != m.CyclesFound {
				t.Errorf("%d simulate / %d find-cycle slices for %d cycles found",
					counts[PhaseSimulate], counts[PhaseFindCycle], m.CyclesFound)
			}
			if tc.cached && m.CyclesFound != m.CacheMisses {
				t.Errorf("%d cycles found for %d misses", m.CyclesFound, m.CacheMisses)
			}
			if !tc.cached && (m.CyclesFound == 0 || m.CacheHits+m.CacheMisses != 0) {
				t.Errorf("uncached engine: %d cycles found, %d cache probes", m.CyclesFound, m.CacheHits+m.CacheMisses)
			}
			if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].StartNS <= events[j].StartNS }) {
				t.Error("Events() not sorted by start time")
			}

			s := e.Snapshot()
			if len(s.TimelineEvents) != len(events) || s.TimelineDropped != 0 {
				t.Errorf("snapshot carries %d events (dropped %d), timeline has %d",
					len(s.TimelineEvents), s.TimelineDropped, len(events))
			}
		})
	}
}

func TestTimelineCapacityDrops(t *testing.T) {
	tl := NewTimeline(8)
	e := NewEngine(Options{Workers: 2, Timeline: tl})
	e.Grid(12, 3)
	if tl.Len() != 8 {
		t.Errorf("recorder holds %d events, capacity is 8", tl.Len())
	}
	if tl.Dropped() == 0 {
		t.Error("overflow not counted as dropped")
	}
	if s := e.Snapshot(); s.TimelineDropped != tl.Dropped() {
		t.Errorf("snapshot dropped %d != timeline %d", s.TimelineDropped, tl.Dropped())
	}
}

func TestTimelineNilIsNoOp(t *testing.T) {
	var tl *Timeline
	tl.Slice(0, PhaseItem, tl.Start(), 0, "")
	tl.Instant(0, PhaseCacheHit, "")
	if tl.Events() != nil || tl.Dropped() != 0 || tl.Len() != 0 {
		t.Error("nil timeline not inert")
	}
}

func TestTimelineKindJSONRoundTrip(t *testing.T) {
	for k := PhaseItem; k <= PhaseCacheMiss; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Phase
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("%v round-tripped to %v via %s", k, back, data)
		}
	}
	var k Phase
	if err := json.Unmarshal([]byte(`"warp-core"`), &k); err == nil {
		t.Error("unknown kind decoded without error")
	}
}

func TestSnapshotTimelineJSONRoundTrip(t *testing.T) {
	tl := NewTimeline(0)
	e := NewEngine(Options{Workers: 2, Timeline: tl})
	e.Grid(12, 3)
	s := e.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.TimelineEvents) != len(s.TimelineEvents) {
		t.Fatalf("round trip lost events: %d != %d", len(back.TimelineEvents), len(s.TimelineEvents))
	}
	for i := range back.TimelineEvents {
		if back.TimelineEvents[i] != s.TimelineEvents[i] {
			t.Fatalf("event %d drifted: %+v != %+v", i, back.TimelineEvents[i], s.TimelineEvents[i])
		}
	}
}
