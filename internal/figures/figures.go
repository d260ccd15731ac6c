// Package figures reproduces the worked examples of Oed & Lange
// (1985), Figures 2–9: concrete memory systems and stream pairs whose
// per-clock timelines the paper prints, together with the effective
// bandwidth each one settles into. They serve as executable ground
// truth for the simulator and as the source for cmd/ivmfigs.
package figures

import (
	"fmt"

	"ivm/internal/memsys"
	"ivm/internal/rat"
	"ivm/internal/trace"
)

// Figure is one of the paper's timeline examples.
type Figure struct {
	ID      string // "2", "3", …, "8a", "8b", "9"
	Title   string
	Config  memsys.Config
	Streams []memsys.StreamSpec
	// Expected effective bandwidth of the cyclic steady state; the
	// paper states it in the caption or the surrounding text.
	WantBandwidth rat.Rational
	// Paper's qualitative outcome, for documentation.
	Outcome string
}

// Build constructs a fresh system with the figure's ports attached.
func (f Figure) Build() *memsys.System {
	sys := memsys.New(f.Config)
	for i, sp := range f.Streams {
		label := sp.Label
		if label == "" {
			label = fmt.Sprintf("%d", i+1)
		}
		sys.AddPort(sp.CPU, label, memsys.NewInfiniteStrided(int64(sp.Start), int64(sp.Distance)))
	}
	return sys
}

// Timeline runs the figure for `clocks` clock periods and returns the
// rendered paper-style diagram. Section figures carry the "section -
// bank" row prefix and — like the paper's Figures 8 and 9 — a priority
// row showing which stream holds the highest priority each clock.
func (f Figure) Timeline(clocks int64) string {
	sys := f.Build()
	rec := trace.Attach(sys, len(f.Streams)*int(clocks))
	sys.Run(clocks)
	if f.Config.Sections != 0 && f.Config.Sections != f.Config.Banks {
		holder := func(t int64) byte {
			p := sys.PriorityHolderAt(t)
			if p == nil || p.Label == "" {
				return '?'
			}
			return p.Label[0]
		}
		return rec.RenderWithPriority(clocks, sys.Section, holder)
	}
	return rec.Render(clocks)
}

// SteadyBandwidth finds the cyclic state and returns its b_eff.
func (f Figure) SteadyBandwidth() (rat.Rational, memsys.Cycle, error) {
	sys := f.Build()
	c, err := sys.FindCycle(1 << 20)
	if err != nil {
		return rat.Zero(), memsys.Cycle{}, err
	}
	return c.EffectiveBandwidth(), c, nil
}

// All returns the paper's figures in order. Two-CPU figures put each
// stream on its own CPU (simultaneous bank conflicts possible, no
// path contention); one-CPU figures share the CPU's per-section paths.
func All() []Figure {
	return []Figure{
		Fig2(), Fig3(), Fig4(), Fig5(), Fig6(), Fig7(), Fig8a(), Fig8b(), Fig9(),
	}
}

// ByID returns the figure with the given ID.
func ByID(id string) (Figure, error) {
	for _, f := range All() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("figures: unknown figure %q", id)
}

// Fig2 — conflict-free access: a 12-way interleaved memory with
// n_c = 3; streams d1 = 1 and d2 = 7 encounter no conflicts (b_eff = 2).
// Theorem 3: gcd(12, 7-1) = 6 >= 2*n_c = 6. Start banks one n_c*d1
// apart (b2 = n_c*d1 = 3 relative to b1 = 0), the relative position the
// proof of Theorem 3 constructs; synchronisation makes every relative
// start converge to this cycle.
func Fig2() Figure {
	return Figure{
		ID:    "2",
		Title: "Conflict-free access (m=12, nc=3, d1=1, d2=7)",
		Config: memsys.Config{
			Banks: 12, Sections: 0, BankBusy: 3, CPUs: 2,
			Mapping: memsys.CyclicSections, Priority: memsys.FixedPriority,
		},
		Streams: []memsys.StreamSpec{
			{Start: 0, Distance: 1, CPU: 0, Label: "1"},
			{Start: 3, Distance: 7, CPU: 1, Label: "2"},
		},
		WantBandwidth: rat.New(2, 1),
		Outcome:       "conflict-free, b_eff = 2",
	}
}

// Fig3 — barrier-situation: m = 13, n_c = 6; the stream with d2 = 6 is
// constantly delayed by the one with d1 = 1. Theorem 4:
// ((6 mod 13) - 1)/1 = 5 < n_c = 6. Unique barrier bandwidth (Eq. 29):
// 1 + d1/d2 = 7/6.
func Fig3() Figure {
	return Figure{
		ID:    "3",
		Title: "Barrier-situation (m=13, nc=6, d1=1, d2=6)",
		Config: memsys.Config{
			Banks: 13, Sections: 0, BankBusy: 6, CPUs: 2,
			Mapping: memsys.CyclicSections, Priority: memsys.FixedPriority,
		},
		Streams: []memsys.StreamSpec{
			{Start: 0, Distance: 1, CPU: 0, Label: "1"},
			{Start: 0, Distance: 6, CPU: 1, Label: "2"},
		},
		WantBandwidth: rat.New(7, 6),
		Outcome:       "stream 2 barriered behind stream 1, b_eff = 1 + 1/6",
	}
}

// Fig4 — double conflict: as Fig. 3 but with start bank b2 = 1, the
// streams fall into a cyclic state with mutual delays; the
// barrier-situation is not reached. Theorem 5's guard fails:
// (n_c - 1)(d2 + d1) = 35 >= m = 13.
func Fig4() Figure {
	f := Fig3()
	f.ID = "4"
	f.Title = "Double conflict (m=13, nc=6, d1=1, d2=6, b2=1)"
	f.Streams[1].Start = 1
	// The paper prints the timeline but no closed-form b_eff; the
	// simulator's cyclic state is the reference (filled in by tests).
	f.WantBandwidth = rat.Zero()
	f.Outcome = "mutual delays (double conflict); barrier not reached"
	return f
}

// Fig5 — barrier-situation satisfying both Theorem 4 and Theorem 5:
// m = 13, n_c = 4, d1 = 1, d2 = 3, b1 = 0, b2 = 7. Stream 2 is delayed;
// Eq. 29 gives b_eff = 1 + 1/3 = 4/3.
func Fig5() Figure {
	return Figure{
		ID:    "5",
		Title: "Barrier-situation (m=13, nc=4, d1=1, d2=3, b2=7)",
		Config: memsys.Config{
			Banks: 13, Sections: 0, BankBusy: 4, CPUs: 2,
			Mapping: memsys.CyclicSections, Priority: memsys.FixedPriority,
		},
		Streams: []memsys.StreamSpec{
			{Start: 0, Distance: 1, CPU: 0, Label: "1"},
			{Start: 7, Distance: 3, CPU: 1, Label: "2"},
		},
		WantBandwidth: rat.New(4, 3),
		Outcome:       "stream 2 barriered, b_eff = 1 + 1/3",
	}
}

// Fig6 — inverted barrier-situation: as Fig. 5 but b2 = 1; now stream 2
// delays stream 1 (the barrier is not unique because (2n_c - 1)·d2 = 21
// > m = 13, Theorem 6). The inverted barrier has the same bandwidth by
// symmetry of Eq. 29's counting: stream 1 yields 1 access per d2' run.
func Fig6() Figure {
	f := Fig5()
	f.ID = "6"
	f.Title = "Inverted barrier-situation (m=13, nc=4, d1=1, d2=3, b2=1)"
	f.Streams[1].Start = 1
	// Inverted barrier: stream "2" (d=3) runs free at rate 1, stream "1"
	// is delayed. The cyclic state's bandwidth comes from the simulator;
	// tests pin it down.
	f.WantBandwidth = rat.Zero()
	f.Outcome = "barrier inverted: stream 1 delayed by stream 2"
	return f
}

// Fig7 — conflict-free access with sections: m = 12, s = 2, n_c = 2,
// d1 = d2 = 1 from the same CPU, relative start (n_c + 1)·d1 = 3.
// Theorem 9's guard fails (n_c·d1 = 2 = s·1), but Eq. 32 holds:
// gcd(12, 0) = 12 >= 2(n_c + 1) = 6, so the extra clock offset makes
// the pair conflict free, b_eff = 2.
func Fig7() Figure {
	return Figure{
		ID:    "7",
		Title: "Conflict-free access with sections (m=12, s=2, nc=2, d1=d2=1, b2=3)",
		Config: memsys.Config{
			Banks: 12, Sections: 2, BankBusy: 2, CPUs: 1,
			Mapping: memsys.CyclicSections, Priority: memsys.FixedPriority,
		},
		Streams: []memsys.StreamSpec{
			{Start: 0, Distance: 1, CPU: 0, Label: "1"},
			{Start: 3, Distance: 1, CPU: 0, Label: "2"},
		},
		WantBandwidth: rat.New(2, 1),
		Outcome:       "conflict-free with two sections, b_eff = 2",
	}
}

// Fig8a — linked conflict: m = 12, s = 3, n_c = 3, d1 = d2 = 1,
// starting at adjacent banks on the same CPU under fixed priority
// (stream 1 always wins ties). Stream 1 encounters two bank conflicts
// at startup, which puts it into a relative position of n_c = s behind
// stream 2; Eq. 31's requirement (n_c·d1 != k·s) is violated and the
// linked conflict builds up: bank and section conflicts alternate,
// b_eff = 3/2.
func Fig8a() Figure {
	return Figure{
		ID:    "8a",
		Title: "Linked conflict, fixed priority (m=12, s=3, nc=3, d1=d2=1)",
		Config: memsys.Config{
			Banks: 12, Sections: 3, BankBusy: 3, CPUs: 1,
			Mapping: memsys.CyclicSections, Priority: memsys.FixedPriority,
		},
		Streams: []memsys.StreamSpec{
			{Start: 0, Distance: 1, CPU: 0, Label: "1"},
			{Start: 1, Distance: 1, CPU: 0, Label: "2"},
		},
		WantBandwidth: rat.New(3, 2),
		Outcome:       "linked conflict not resolved, b_eff = 3/2",
	}
}

// Fig8b — the same linked conflict resolved by a cyclic priority rule;
// b_eff = 2.
func Fig8b() Figure {
	f := Fig8a()
	f.ID = "8b"
	f.Title = "Linked conflict resolved by cyclic priority"
	f.Config.Priority = memsys.CyclicPriority
	f.WantBandwidth = rat.New(2, 1)
	f.Outcome = "cyclic priority resolves the linked conflict, b_eff = 2"
	return f
}

// Fig9 — the same linked conflict prevented by combining m/s
// consecutive banks into a section (Cheung & Smith); b_eff = 2.
func Fig9() Figure {
	f := Fig8a()
	f.ID = "9"
	f.Title = "Linked conflict resolved by consecutive-bank sections"
	f.Config.Mapping = memsys.ConsecutiveSections
	f.WantBandwidth = rat.New(2, 1)
	f.Outcome = "consecutive sections prevent the linked conflict, b_eff = 2"
	return f
}
