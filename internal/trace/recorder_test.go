package trace

import (
	"strings"
	"testing"

	"ivm/internal/memsys"
)

func TestCountsSingleStream(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 2, CPUs: 1})
	rec := Attach(sys, 0)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(400)

	s := rec.Snapshot()
	if s.Grants != 400 || s.Delays != 0 {
		t.Fatalf("grants/delays = %d/%d", s.Grants, s.Delays)
	}
	// d=1 over 4 banks: each bank gets 100 grants, busy 2 of every 4
	// clocks: utilisation 0.5.
	for bank := 0; bank < 4; bank++ {
		if g := s.BankGrants[bank]; g != 100 {
			t.Fatalf("bank %d grants = %d", bank, g)
		}
		if u := s.Utilization[bank]; u < 0.49 || u > 0.51 {
			t.Fatalf("bank %d utilisation = %v", bank, u)
		}
	}
	if s.Bandwidth < 0.99 || s.Bandwidth > 1.01 {
		t.Fatalf("bandwidth = %v", s.Bandwidth)
	}
}

func TestCountsGrantHistogram(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 8, BankBusy: 2, CPUs: 2})
	rec := Attach(sys, 0)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(4, 1))
	sys.Run(100)
	// Disjoint phases, both full speed: every finished clock has 2
	// grants.
	h := rec.Snapshot().GrantHistogram
	if len(h) < 3 || h[2] < 95 || h[0] != 0 || h[1] != 0 {
		t.Fatalf("histogram = %v, expected ~99 clocks with 2 grants and none with fewer", h)
	}
}

func TestCountsConflictKinds(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 8, BankBusy: 4, CPUs: 2})
	rec := Attach(sys, 0)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 0)) // hammers bank 0
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 0)) // same bank, other CPU
	sys.Run(64)
	s := rec.Snapshot()
	if s.SimultaneousConflicts == 0 || s.BankConflicts == 0 {
		t.Errorf("expected simultaneous and bank conflicts: %+v", s)
	}
	if s.BankDelays[0] != s.Delays || s.BankGrants[0] != s.Grants {
		t.Errorf("everything must be attributed to bank 0: %+v", s)
	}
}

func TestCountsSilentClocks(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 4, CPUs: 1})
	rec := Attach(sys, 0)
	// Self-conflicting stream: d=0, one grant every 4 clocks; the three
	// waiting clocks produce bank-conflict events, so all clocks carry
	// events — bandwidth ~1/4.
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 0))
	sys.Run(400)
	s := rec.Snapshot()
	if s.Bandwidth < 0.24 || s.Bandwidth > 0.26 {
		t.Fatalf("bandwidth = %v, want ~0.25", s.Bandwidth)
	}
	if s.GrantHistogram[0] == 0 {
		t.Fatal("expected zero-grant clocks")
	}
}

func TestUtilizationClamped(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 2, BankBusy: 8, CPUs: 1})
	rec := Attach(sys, 0)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(10)
	for bank, u := range rec.Snapshot().Utilization {
		if u > 1 {
			t.Fatalf("bank %d utilisation %v > 1", bank, u)
		}
	}
}

func TestReportRenders(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 2, CPUs: 1})
	rec := Attach(sys, 0)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(40)
	r := rec.Report()
	for _, want := range []string{"bank", "utilisation", "bandwidth estimate", "delays:"} {
		if !strings.Contains(r, want) {
			t.Fatalf("report missing %q:\n%s", want, r)
		}
	}
}

func TestEmptyRecorder(t *testing.T) {
	rec := Attach(memsys.New(memsys.Config{Banks: 4, BankBusy: 2, CPUs: 1}), 8)
	s, w := rec.Snapshot(), rec.WindowStats()
	if s.ObservedClocks != 0 || s.Bandwidth != 0 || s.Utilization[0] != 0 || w != (WindowStats{}) || len(rec.Events()) != 0 {
		t.Fatalf("empty recorder must report zeros: %+v %+v", s, w)
	}
	if got := rec.Render(3); got != "0 ...\n1 ...\n2 ...\n3 ...\n" {
		t.Errorf("empty diagram %q", got)
	}
}

// Eq. 29's microstructure, observed: in the Fig. 3 barrier (d1=1,
// d2=6, f=1) the delayed stream's delay streaks all have length
// (d2-d1)/f = 5 in the steady state; in Fig. 5 (d1=1, d2=3) length 2.
func TestDelayRunLengthsMatchEq29(t *testing.T) {
	check := func(m, nc, b2, d2 int, wantRun int64) {
		t.Helper()
		sys := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
		rec := Attach(sys, 0)
		sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
		sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
		sys.Run(int64(40 * m * nc))
		runs := rec.DelayRunLengths(1)
		if len(runs) == 0 {
			t.Fatalf("d2=%d: no delay runs", d2)
		}
		// All steady-state runs have the characteristic length; allow a
		// single deviating run from the startup transient.
		other := int64(0)
		for length, count := range runs {
			if length != wantRun {
				other += count
			}
		}
		if other > 1 {
			t.Fatalf("d2=%d: runs %v, want nearly all of length %d", d2, runs, wantRun)
		}
	}
	check(13, 6, 0, 6, 5) // Fig. 3
	check(13, 4, 7, 3, 2) // Fig. 5
}

func TestDelayRunLengthsEmptyForFreePair(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 12, BankBusy: 3, CPUs: 2})
	rec := Attach(sys, 0)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(3, 7))
	sys.Run(400)
	if runs := rec.DelayRunLengths(1); len(runs) != 0 {
		t.Fatalf("conflict-free pair has delay runs: %v", runs)
	}
	if runs := rec.DelayRunLengths(7); len(runs) != 0 {
		t.Fatalf("unknown port has delay runs: %v", runs)
	}
}

// Merging two per-worker recorders must equal one recorder that saw
// both workloads: totals, histograms, run lengths and rate denominators
// all add.
func TestMergeEqualsCombinedObservation(t *testing.T) {
	run := func(d int64, clocks int64) *Recorder {
		sys := memsys.New(memsys.Config{Banks: 8, BankBusy: 4, CPUs: 2})
		rec := Attach(sys, 0)
		sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
		sys.AddPort(1, "2", memsys.NewInfiniteStrided(2, d))
		sys.Run(clocks)
		return rec
	}
	a, b := run(0, 200), run(3, 120)
	as, bs := a.Snapshot(), b.Snapshot()
	aRuns, bRuns := a.DelayRunLengths(1), b.DelayRunLengths(1)

	a.Merge(b)
	got := a.Snapshot()
	if got.Grants != as.Grants+bs.Grants || got.Delays != as.Delays+bs.Delays ||
		got.BankConflicts != as.BankConflicts+bs.BankConflicts {
		t.Fatalf("merged totals %+v from %+v and %+v", got, as, bs)
	}
	if got.ObservedClocks != as.ObservedClocks+bs.ObservedClocks {
		t.Fatalf("merged clocks = %d, want %d", got.ObservedClocks, as.ObservedClocks+bs.ObservedClocks)
	}
	for bank := range got.BankGrants {
		if got.BankGrants[bank] != as.BankGrants[bank]+bs.BankGrants[bank] ||
			got.BankDelays[bank] != as.BankDelays[bank]+bs.BankDelays[bank] {
			t.Fatalf("bank %d merged %d/%d", bank, got.BankGrants[bank], got.BankDelays[bank])
		}
	}
	for k := range got.GrantHistogram {
		want := int64(0)
		if k < len(as.GrantHistogram) {
			want += as.GrantHistogram[k]
		}
		if k < len(bs.GrantHistogram) {
			want += bs.GrantHistogram[k]
		}
		if got.GrantHistogram[k] != want {
			t.Fatalf("histogram[%d] = %d, want %d", k, got.GrantHistogram[k], want)
		}
	}
	for n, v := range a.DelayRunLengths(1) {
		if v != aRuns[n]+bRuns[n] {
			t.Fatalf("run length %d merged %d, want %d", n, v, aRuns[n]+bRuns[n])
		}
	}
	if want := float64(got.Grants) / float64(got.ObservedClocks); got.Bandwidth != want {
		t.Fatalf("merged bandwidth = %v, want %v", got.Bandwidth, want)
	}
	// Merging nil or self is a no-op.
	a.Merge(nil)
	a.Merge(a)
	if a.Snapshot().Grants != got.Grants {
		t.Fatal("nil/self merge changed totals")
	}
}

func TestMergeGeometryMismatchPanics(t *testing.T) {
	mk := func(banks int) *Recorder {
		return Attach(memsys.New(memsys.Config{Banks: banks, BankBusy: 2, CPUs: 1}), 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched geometries must panic")
		}
	}()
	mk(4).Merge(mk(8))
}
