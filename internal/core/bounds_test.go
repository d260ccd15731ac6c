package core

import (
	"math/rand"
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/rat"
	"ivm/internal/stream"
)

func TestSaturationBound(t *testing.T) {
	// The X-MP case the paper cites: 6 ports, 16 banks, nc=4.
	if got := SaturationBound(16, 4, 6); !got.Equal(rat.New(4, 1)) {
		t.Errorf("SaturationBound(16,4,6) = %s, want 4", got)
	}
	if got := SaturationBound(16, 4, 3); !got.Equal(rat.New(3, 1)) {
		t.Errorf("SaturationBound(16,4,3) = %s, want 3 (port-limited)", got)
	}
	if !PortsSaturate(16, 4, 6) {
		t.Error("6*4 > 16: saturation expected")
	}
	if PortsSaturate(16, 4, 4) {
		t.Error("4*4 = 16: not saturated")
	}
}

// The paper's Section IV argument, simulated: six unit-stride streams
// on the 16-bank n_c=4 memory cannot exceed 4 grants/clock — and the
// bound is tight (the cyclic state attains exactly 4).
func TestSixPortSaturationTight(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 16, BankBusy: 4, CPUs: 2})
	var sets []StreamSet
	for i := 0; i < 6; i++ {
		cpu := i / 3
		sys.AddPort(cpu, string(rune('1'+i)), memsys.NewInfiniteStrided(int64(i), 1))
		sets = append(sets, StreamSet{Stream: stream.Infinite(16, i, 1), CPU: cpu})
	}
	c, err := sys.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	got := c.EffectiveBandwidth()
	bound := MultiStreamBound(16, 0, 4, sets)
	if got.Cmp(bound) > 0 {
		t.Fatalf("b_eff %s exceeds bound %s", got, bound)
	}
	if !got.Equal(rat.New(4, 1)) {
		t.Fatalf("b_eff = %s, want the tight bound 4", got)
	}
}

// Property: simulated aggregate bandwidth never exceeds
// MultiStreamBound, over randomised configurations.
func TestMultiStreamBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(19851001))
	for trial := 0; trial < 120; trial++ {
		ms := []int{8, 12, 16}[rng.Intn(3)]
		ncs := []int{2, 3, 4}[rng.Intn(3)]
		var s int
		for _, cand := range []int{0, 2, 4} {
			if cand == 0 || ms%cand == 0 {
				s = cand
			}
		}
		if rng.Intn(2) == 0 {
			s = 0
		}
		cpus := 1 + rng.Intn(2)
		p := 1 + rng.Intn(5)

		cfg := memsys.Config{Banks: ms, Sections: s, BankBusy: ncs, CPUs: cpus}
		sys := memsys.New(cfg)
		var sets []StreamSet
		for i := 0; i < p; i++ {
			st := stream.Infinite(ms, rng.Intn(ms), rng.Intn(ms))
			cpu := rng.Intn(cpus)
			sys.AddPort(cpu, string(rune('1'+i)), memsys.NewInfiniteStrided(int64(st.Start), int64(st.Distance)))
			sets = append(sets, StreamSet{Stream: st, CPU: cpu})
		}
		c, err := sys.FindCycle(1 << 21)
		if err != nil {
			t.Fatal(err)
		}
		got := c.EffectiveBandwidth()
		bound := MultiStreamBound(ms, s, ncs, sets)
		if got.Cmp(bound) > 0 {
			t.Fatalf("trial %d (m=%d s=%d nc=%d p=%d): b_eff %s exceeds bound %s",
				trial, ms, s, ncs, p, got, bound)
		}
	}
}

// The pair bounds sandwich the simulator from every relative start,
// and are tight at both ends on degenerate pairs.
func TestPairBandwidthBoundsSandwichSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(19850712))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(12)
		nc := 1 + rng.Intn(4)
		d1 := rng.Intn(m)
		d2 := rng.Intn(m)
		b2 := rng.Intn(m)
		lo, hi := PairBandwidthBounds(m, nc, d1, d2)
		sys := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
		sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, int64(d1)))
		sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
		c, err := sys.FindCycle(1 << 21)
		if err != nil {
			t.Fatal(err)
		}
		bw := c.EffectiveBandwidth()
		if bw.Cmp(lo) < 0 || bw.Cmp(hi) > 0 {
			t.Fatalf("m=%d nc=%d %d(+)%d b2=%d: b_eff %s outside [%s, %s]",
				m, nc, d1, d2, b2, bw, lo, hi)
		}
	}
	// Tight below: two d=0 streams on one bank share its 1/n_c capacity.
	lo, _ := PairBandwidthBounds(16, 4, 0, 0)
	sys := memsys.New(memsys.Config{Banks: 16, BankBusy: 4, CPUs: 2})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 0))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 0))
	c, err := sys.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !c.EffectiveBandwidth().Equal(lo) {
		t.Fatalf("degenerate pair b_eff %s, lower bound %s should be tight", c.EffectiveBandwidth(), lo)
	}
	// Tight above: a conflict-free pair attains the port bound of 2;
	// below it still only guarantees one bank's 1/n_c.
	lo, hi := PairBandwidthBounds(12, 3, 1, 7)
	if !lo.Equal(rat.New(1, 3)) || !hi.Equal(rat.New(2, 1)) {
		t.Fatalf("conflict-free pair bounds [%s, %s], want [1/3, 2]", lo, hi)
	}
}

// The path bound matters: two ports of one CPU into a single shared
// section can never exceed 1 grant/clock.
func TestPathBound(t *testing.T) {
	// m=8, s=2: streams with d=2 from even banks stay in section 0.
	sets := []StreamSet{
		{Stream: stream.Infinite(8, 0, 2), CPU: 0},
		{Stream: stream.Infinite(8, 2, 2), CPU: 0},
	}
	bound := MultiStreamBound(8, 2, 2, sets)
	// Self bound = 2, bank bound = 4/2 = 2, path bound = min(2,2) = 2 —
	// the generic bounds don't see the shared section; but simulation
	// must still respect them.
	sys := memsys.New(memsys.Config{Banks: 8, Sections: 2, BankBusy: 2, CPUs: 1})
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 2))
	sys.AddPort(0, "2", memsys.NewInfiniteStrided(2, 2))
	c, err := sys.FindCycle(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	if c.EffectiveBandwidth().Cmp(bound) > 0 {
		t.Fatalf("b_eff %s exceeds bound %s", c.EffectiveBandwidth(), bound)
	}
	// One CPU, one usable section: the path bound with s=1 usable...
	// both streams only ever touch section 0, so the real ceiling is 1.
	if c.EffectiveBandwidth().Cmp(rat.One()) > 0 {
		t.Fatalf("two streams through one path exceed 1: %s", c.EffectiveBandwidth())
	}
}

// Self-conflict bound dominates for low-return-number strides.
func TestSelfConflictBoundDominates(t *testing.T) {
	sets := []StreamSet{
		{Stream: stream.Infinite(16, 0, 8), CPU: 0}, // r=2, nc=4: 1/2
		{Stream: stream.Infinite(16, 1, 8), CPU: 1}, // disjoint banks
	}
	bound := MultiStreamBound(16, 0, 4, sets)
	if !bound.Equal(rat.One()) {
		t.Fatalf("bound = %s, want 1 (two half-speed streams)", bound)
	}
}

func TestMultiStreamBoundValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched bank counts did not panic")
		}
	}()
	MultiStreamBound(16, 0, 4, []StreamSet{{Stream: stream.Infinite(8, 0, 1)}})
}
