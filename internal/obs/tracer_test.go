package obs

// The recorder's exact counts and event window, as this package's
// exporters read them.

import (
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/trace"
)

// fig3System builds the paper's Fig. 3 barrier (m=13, nc=6, d1=1, d2=6):
// stream 2 is delayed by bank conflicts in the steady state, so the
// recorder sees both grants and classified delays.
func fig3System(kern memsys.Kernel) *memsys.System {
	sys := memsys.New(memsys.Config{Banks: 13, BankBusy: 6, CPUs: 2})
	sys.SetKernel(kern)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 6))
	return sys
}

func TestTracerCountsMatchPortCounters(t *testing.T) {
	for _, kern := range []memsys.Kernel{memsys.KernelScalar, memsys.KernelPacked} {
		sys := fig3System(kern)
		rec := trace.Attach(sys, 0)
		sys.Run(200)

		var want memsys.Counters
		for _, p := range sys.Ports() {
			want.Grants += p.Count.Grants
			want.Bank += p.Count.Bank
			want.Simultaneous += p.Count.Simultaneous
			want.Section += p.Count.Section
		}
		s := rec.Snapshot()
		if s.Grants != want.Grants || s.BankConflicts != want.Bank ||
			s.SimultaneousConflicts != want.Simultaneous || s.SectionConflicts != want.Section ||
			s.Delays != want.Bank+want.Simultaneous+want.Section {
			t.Errorf("kernel %v: snapshot %+v, ports say %+v", kern, s, want)
		}
		if w := rec.WindowStats(); w.Grants != s.Grants || w.Delays != s.Delays || w.Events != 0 || w.Recorded != 0 {
			t.Errorf("kernel %v: window stats %+v disagree with counts-only snapshot %+v", kern, w, s)
		}
		if s.Bandwidth <= 0 || s.Bandwidth > 2 {
			t.Errorf("kernel %v: bandwidth estimate %v out of range", kern, s.Bandwidth)
		}
	}
}

func TestTracerEventsAreValueCopies(t *testing.T) {
	sys := fig3System(memsys.KernelScalar)
	rec := trace.Attach(sys, 64)
	sys.Run(20)
	for _, e := range rec.Events() {
		if e.Bank < 0 || e.Bank >= 13 {
			t.Fatalf("bank %d out of range", e.Bank)
		}
		if e.Granted() && e.Blocker != -1 {
			t.Fatalf("grant with blocker %d", e.Blocker)
		}
		if !e.Granted() && e.Blocker < 0 {
			t.Fatalf("delay without blocker: %+v", e)
		}
		if want := string(rune('1' + e.Port)); rec.Label(e.Port) != want {
			t.Fatalf("port %d labelled %q, want %q", e.Port, rec.Label(e.Port), want)
		}
	}
}

func TestTracerRingWrapKeepsMostRecent(t *testing.T) {
	sys := fig3System(memsys.KernelScalar)
	rec := trace.Attach(sys, 16)
	sys.Run(100)

	events := rec.Events()
	if len(events) != 16 {
		t.Fatalf("window holds %d events, size 16", len(events))
	}
	st := rec.WindowStats()
	if st.Dropped == 0 || st.Recorded != st.Grants+st.Delays || st.Recorded != int64(st.Events)+st.Dropped {
		t.Fatalf("window stats %+v after 100 clocks with window 16", st)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Clock < events[i-1].Clock {
			t.Fatalf("events out of order at %d: %d < %d", i, events[i].Clock, events[i-1].Clock)
		}
	}
	// The window keeps the tail of the run: its last event is the last
	// observed clock.
	if got := events[len(events)-1].Clock; got != st.LastClock {
		t.Errorf("window tail clock %d, last observed %d", got, st.LastClock)
	}
	// Reading the window again (after the in-place rotation) and
	// observing more keeps the order.
	sys.Run(3)
	again := rec.Events()
	if again[len(again)-1].Clock != rec.WindowStats().LastClock || again[0].Clock > again[1].Clock {
		t.Errorf("window out of order after a second read")
	}
}
