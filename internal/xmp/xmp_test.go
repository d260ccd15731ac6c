package xmp

import (
	"testing"

	"ivm/internal/machine"
)

func cfg() machine.Config { return machine.DefaultConfig() }

func TestMemConfigIsTheXMP(t *testing.T) {
	mc := MemConfig()
	if mc.Banks != 16 || mc.Sections != 4 || mc.BankBusy != 4 || mc.CPUs != 2 {
		t.Fatalf("MemConfig = %+v", mc)
	}
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTriadQuietBaseline(t *testing.T) {
	r := TriadExperiment(1, 256, false, cfg())
	if r.Simultaneous != 0 {
		t.Errorf("no other CPU, yet %d simultaneous conflicts", r.Simultaneous)
	}
	if r.Clocks <= 0 || r.Micros <= 0 {
		t.Errorf("degenerate result %+v", r)
	}
	// 4 streams x 256 elements cannot finish faster than the critical
	// stream: at least 4 strips of 64.
	if r.Clocks < 256 {
		t.Errorf("clocks = %d, impossibly fast", r.Clocks)
	}
}

// The paper's headline qualitative results, at reduced vector length
// for test speed (n = 512; the shape is stride-driven, not
// length-driven):
//
//   - INC = 1, 6, 11 show the best performance;
//   - INC = 2 and 3 hit the barrier-situation against the d=1
//     environment and are much slower (INC 3 worse than INC 2);
//   - INC = 9 is conflict free in theory but worse than INC = 1 in
//     practice (six ports saturate 16 banks);
//   - INC = 16 (distance 0: one bank) is the worst of all.
func TestTriadShapeMatchesPaper(t *testing.T) {
	res := TriadSweep(16, 512, true, cfg())
	at := func(inc int) int64 { return res[inc-1].Clocks }

	best := []int{1, 6, 11}
	for _, inc := range best {
		for _, other := range []int{2, 3, 4, 5, 7, 8, 9, 10, 13, 14, 15, 16} {
			if at(inc) >= at(other) {
				t.Errorf("INC=%d (%d clocks) should beat INC=%d (%d clocks)",
					inc, at(inc), other, at(other))
			}
		}
	}
	if !(at(3) > at(2) && at(2) > at(1)) {
		t.Errorf("barrier ordering violated: INC1=%d INC2=%d INC3=%d", at(1), at(2), at(3))
	}
	if at(9) <= at(1) {
		t.Errorf("INC=9 (%d) should trail INC=1 (%d)", at(9), at(1))
	}
	if at(16) <= at(8) {
		t.Errorf("INC=16 (%d) should be the worst; INC=8 is %d", at(16), at(8))
	}
}

// With the other CPU shut off (Fig. 10b), the strides that suffered
// barrier-situations recover: INC = 2 and 3 run about as fast as
// INC = 1, and simultaneous conflicts disappear.
func TestTriadQuietRecovers(t *testing.T) {
	busy := TriadSweep(3, 512, true, cfg())
	quiet := TriadSweep(3, 512, false, cfg())
	if len(busy) != 3 || len(quiet) != 3 {
		t.Fatalf("sweeps to INC=3 returned %d and %d results", len(busy), len(quiet))
	}
	for i := range quiet {
		if busy[i].INC != i+1 || quiet[i].INC != i+1 {
			t.Fatalf("result %d is INC %d/%d", i, busy[i].INC, quiet[i].INC)
		}
		if quiet[i].Simultaneous != 0 {
			t.Errorf("INC=%d: simultaneous conflicts without another CPU", quiet[i].INC)
		}
		if quiet[i].Clocks >= busy[i].Clocks {
			t.Errorf("INC=%d: quiet (%d) not faster than busy (%d)",
				quiet[i].INC, quiet[i].Clocks, busy[i].Clocks)
		}
	}
	// Barrier penalty is an interference effect: quiet INC=3 within 15%
	// of quiet INC=1.
	if q1, q3 := quiet[0].Clocks, quiet[2].Clocks; q3 > q1+q1*15/100 {
		t.Errorf("quiet INC=3 (%d) should be close to quiet INC=1 (%d)", q3, q1)
	}
}

// Conflict counters behave: the busy run shows simultaneous conflicts
// (Fig. 10e nonzero), and power-of-two strides concentrate everything
// into bank conflicts (section sets collapse onto one section per
// stream: no section conflicts).
func TestTriadConflictTaxonomy(t *testing.T) {
	res := TriadSweep(16, 512, true, cfg())
	var simult int64
	for _, r := range res {
		simult += r.Simultaneous
	}
	if simult == 0 {
		t.Error("Fig. 10e: expected simultaneous conflicts somewhere in the sweep")
	}
	for _, inc := range []int{4, 8, 12, 16} {
		if res[inc-1].Section != 0 {
			t.Errorf("INC=%d: d = 0 mod 4 pins each stream to one section; got %d section conflicts",
				inc, res[inc-1].Section)
		}
	}
}

func TestTriadDeterminism(t *testing.T) {
	a := TriadExperiment(7, 512, true, cfg())
	b := TriadExperiment(7, 512, true, cfg())
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestTriadBadIncrementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TriadExperiment(0, ...) did not panic")
		}
	}()
	TriadExperiment(0, 64, false, cfg())
}
