package memsys

import "testing"

// A system reused through Reset must find exactly the same cyclic
// steady state as a fresh one — same lead, length, per-port grants and
// bandwidth — even after simulating an unrelated configuration of
// streams in between, on either kernel. This is the contract the sweep
// engine's per-worker system reuse relies on: every answer, the
// reference engine's included, comes from a system reused through
// Reset. Each configuration appears in two consecutive rows, so the
// second row of every pair runs on a Reset system.
func TestResetReuseMatchesFresh(t *testing.T) {
	fig3 := Config{Banks: 13, BankBusy: 6, CPUs: 2}
	fig2 := Config{Banks: 12, BankBusy: 3, CPUs: 2}
	xmp := Config{Banks: 16, BankBusy: 4, CPUs: 2}
	sectioned := Config{Banks: 16, Sections: 4, BankBusy: 4, CPUs: 1}
	three := Config{Banks: 13, BankBusy: 4, CPUs: 3}
	cyclic := Config{Banks: 13, BankBusy: 6, CPUs: 2, Priority: CyclicPriority}
	consec := Config{Banks: 12, Sections: 3, BankBusy: 3, CPUs: 1, Mapping: ConsecutiveSections}
	// two places stream 1 (d1) at bank 0 and stream 2 (d2) at b2 on cpu2.
	two := func(b2, d1, d2, cpu2 int) []StreamSpec {
		return []StreamSpec{{Distance: d1}, {Start: b2, Distance: d2, CPU: cpu2}}
	}
	rows := []struct {
		name    string
		cfg     Config
		streams []StreamSpec
	}{
		{"Fig. 3 barrier", fig3, two(0, 1, 6, 1)},
		{"Fig. 3 shifted", fig3, two(4, 1, 6, 1)},
		{"Fig. 2 conflict-free", fig2, two(3, 1, 7, 1)},
		{"self-conflicting", xmp, two(1, 8, 8, 1)},
		{"self-conflicting shifted", xmp, two(2, 8, 8, 1)},
		{"sectioned pair", sectioned, two(1, 1, 3, 0)},
		{"sectioned pair shifted", sectioned, two(5, 1, 3, 0)},
		{"three streams", three, []StreamSpec{
			{Distance: 1}, {Start: 1, Distance: 2, CPU: 1}, {Start: 2, Distance: 6, CPU: 2}}},
		{"three streams shifted", three, []StreamSpec{
			{Distance: 1}, {Start: 5, Distance: 2, CPU: 1}, {Start: 9, Distance: 6, CPU: 2}}},
		// b2 = 1 leaves the rotation pointer odd; a Reset that kept it
		// would turn the b2 = 0 barrier (7/6) into b_eff = 1.
		{"cyclic-priority pair", cyclic, two(1, 1, 6, 1)},
		{"cyclic-priority pair shifted", cyclic, two(0, 1, 6, 1)},
		{"consecutive section pair", consec, two(1, 1, 1, 0)},
		{"consecutive section pair shifted", consec, two(2, 1, 5, 0)},
		{"Fig. 3 on a dirty system", fig3, two(0, 1, 6, 1)},
	}
	for _, k := range []Kernel{KernelScalar, KernelPacked} {
		fresh := make([]Cycle, len(rows))
		for i, r := range rows {
			sys := New(r.cfg)
			sys.SetKernel(k)
			sys.AddStreams(r.streams...)
			c, err := sys.FindCycle(1 << 20)
			if err != nil {
				t.Fatalf("%v %s: %v", k, r.name, err)
			}
			fresh[i] = c
		}

		var reused *System
		resets := 0
		for i, r := range rows {
			if reused == nil || reused.Config() != r.cfg {
				reused = New(r.cfg)
				reused.SetKernel(k)
			} else {
				reused.Reset()
				resets++
			}
			reused.AddStreams(r.streams...)
			c, err := reused.FindCycle(1 << 20)
			if err != nil {
				t.Fatalf("%v reused %s: %v", k, r.name, err)
			}
			if c.Lead != fresh[i].Lead || c.Length != fresh[i].Length {
				t.Fatalf("%v reused %s: lead/length %d/%d, fresh %d/%d",
					k, r.name, c.Lead, c.Length, fresh[i].Lead, fresh[i].Length)
			}
			for pt := range c.Grants {
				if c.Grants[pt] != fresh[i].Grants[pt] {
					t.Fatalf("%v reused %s: grants %v, fresh %v", k, r.name, c.Grants, fresh[i].Grants)
				}
			}
			if !c.EffectiveBandwidth().Equal(fresh[i].EffectiveBandwidth()) {
				t.Fatalf("%v reused %s: b_eff %s, fresh %s",
					k, r.name, c.EffectiveBandwidth(), fresh[i].EffectiveBandwidth())
			}
		}
		if resets != 6 {
			t.Fatalf("%v: %d rows ran on a Reset system, want 6", k, resets)
		}
	}
}

// TestResetClearsPackedState reuses a packed-kernel system through
// Reset with banks still mid-busy and expiry events still queued in the
// event wheel. If Reset left any stale bit or wheel entry behind, the
// reused run would either see phantom busy banks or free a re-granted
// bank early; the test pins the reused cycle to a fresh packed system
// and to the scalar oracle, and checks Reset is idempotent.
func TestResetClearsPackedState(t *testing.T) {
	cfg := Config{Banks: 13, BankBusy: 6, CPUs: 2}
	attach := func(sys *System) {
		sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
		sys.AddPort(1, "2", NewInfiniteStrided(0, 6))
	}

	reused := New(cfg)
	reused.SetKernel(KernelPacked)
	attach(reused)
	// Stop mid-busy: with n_c = 6, clock 3 leaves live busy bits and
	// queued expiry events in the wheel.
	reused.Run(3)
	reused.Reset()
	reused.Reset() // idempotent: a second Reset must be a no-op
	for b := 0; b < cfg.Banks; b++ {
		if reused.BankBusy(b) != 0 || reused.BankOwner(b) != nil {
			t.Fatalf("bank %d still busy after Reset on packed kernel", b)
		}
	}
	attach(reused)
	got, err := reused.FindCycle(1 << 20)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []Kernel{KernelPacked, KernelScalar} {
		fresh := New(cfg)
		fresh.SetKernel(k)
		attach(fresh)
		want, err := fresh.FindCycle(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if got.Lead != want.Lead || got.Length != want.Length {
			t.Fatalf("reused packed lead/length %d/%d, fresh %v %d/%d", got.Lead, got.Length, k, want.Lead, want.Length)
		}
		if !got.EffectiveBandwidth().Equal(want.EffectiveBandwidth()) {
			t.Fatalf("reused packed b_eff %s, fresh %v %s", got.EffectiveBandwidth(), k, want.EffectiveBandwidth())
		}
	}
}

// Reset keeps the clock monotonic and detaches ports.
func TestResetKeepsClock(t *testing.T) {
	sys := New(Config{Banks: 8, BankBusy: 2, CPUs: 1})
	sys.AddPort(0, "1", NewInfiniteStrided(0, 1))
	sys.Run(17)
	before := sys.Clock()
	sys.Reset()
	if sys.Clock() != before {
		t.Fatalf("clock rewound: %d -> %d", before, sys.Clock())
	}
	if len(sys.Ports()) != 0 {
		t.Fatalf("%d ports survived Reset", len(sys.Ports()))
	}
	for b := 0; b < 8; b++ {
		if sys.BankBusy(b) != 0 || sys.BankOwner(b) != nil {
			t.Fatalf("bank %d still busy after Reset", b)
		}
	}
}
