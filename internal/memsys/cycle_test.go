package memsys

import (
	"errors"
	"fmt"
	"testing"
)

var bothKernels = []Kernel{KernelScalar, KernelPacked}

func kernelSystem(k Kernel, cfg Config, streams ...StreamSpec) *System {
	sys := New(cfg)
	sys.SetKernel(k)
	sys.AddStreams(streams...)
	return sys
}

type placement struct {
	cfg     Config
	streams []StreamSpec
}

// shortCycle (Lead+Length 44) and longCycle (Lead+Length 1055) are the
// placements the budget and allocation tests share. Their streams are
// labelled so that AddStreams formats no label, whose fmt buffer comes
// from a sync.Pool and would make the setup's allocations vary.
var (
	shortCycle = placement{Config{Banks: 13, BankBusy: 4, CPUs: 2},
		[]StreamSpec{{Distance: 1, Label: "1"}, {Start: 5, Distance: 3, CPU: 1, Label: "2"}}}
	longCycle = placement{Config{Banks: 20, BankBusy: 12, CPUs: 3},
		[]StreamSpec{{Distance: 1, Label: "1"}, {Start: 1, Distance: 3, CPU: 1, Label: "2"}, {Start: 3, Distance: 4, CPU: 2, Label: "3"}}}
)

// The clock budget bounds the clocks stepped, so the state reached by
// the last allowed step is still checked: a budget of exactly
// Lead+Length finds the cycle, one clock less does not.
func TestFindCycleBudgetIsInclusive(t *testing.T) {
	rows := []struct {
		name         string
		cfg          Config
		streams      []StreamSpec
		lead, length int64
	}{
		{"m13 nc4 d1/d3", shortCycle.cfg, shortCycle.streams, 5, 39},
		{"Fig. 3 barrier", Config{Banks: 13, BankBusy: 6, CPUs: 2}, []StreamSpec{{Distance: 1}, {Distance: 6, CPU: 1}}, 6, 78},
		{"sectioned cyclic", Config{Banks: 16, Sections: 4, BankBusy: 4, Priority: CyclicPriority}, []StreamSpec{{Distance: 1}, {Start: 5, Distance: 3}}, 6, 160},
	}
	for _, r := range rows {
		for _, k := range bothKernels {
			t.Run(fmt.Sprintf("%s/%v", r.name, k), func(t *testing.T) {
				budget := r.lead + r.length
				c, err := kernelSystem(k, r.cfg, r.streams...).FindCycle(budget)
				if err != nil || c.Lead != r.lead || c.Length != r.length {
					t.Fatalf("FindCycle(%d) = lead %d length %d, %v; want lead %d length %d", budget, c.Lead, c.Length, err, r.lead, r.length)
				}
				if _, err := kernelSystem(k, r.cfg, r.streams...).FindCycle(budget - 1); !errors.Is(err, ErrNoCycle) {
					t.Fatalf("FindCycle(%d) error %v, want ErrNoCycle", budget-1, err)
				}
			})
		}
	}
}

// Once a reused system's state table has grown, FindCycle allocates
// only the returned Cycle's two slices, however many clocks it steps.
func TestFindCycleAllocatesNothingPerClock(t *testing.T) {
	for _, k := range bothKernels {
		for _, pl := range []struct {
			placement
			clocks int64
		}{{shortCycle, 44}, {longCycle, 1055}} {
			sys := kernelSystem(k, pl.cfg)
			setup := func() { sys.Reset(); sys.AddStreams(pl.streams...) }
			find := func() {
				setup()
				if c, err := sys.FindCycle(1 << 20); err != nil || c.Lead+c.Length != pl.clocks {
					t.Fatalf("Lead+Length %d, %v; want %d", c.Lead+c.Length, err, pl.clocks)
				}
			}
			// Stepping grows the packed kernel's wheel slots to their
			// largest occupancy over the clock phases Reset leaves
			// behind; warm past that before counting.
			for i := 0; i < 50; i++ {
				find()
			}
			if got := testing.AllocsPerRun(100, find) - testing.AllocsPerRun(100, setup); got != 2 {
				t.Errorf("%v kernel, m=%d: FindCycle allocates %v times, want 2", k, pl.cfg.Banks, got)
			}
		}
	}
}

// Keys sharing one hash are told apart by their bytes: lookup returns
// the exact match, and an unseen key is added, not matched.
func TestStateTableExactMatchUnderCollision(t *testing.T) {
	var st stateTable
	probe := func(key []byte) (int, bool) {
		st.keys = append(st.keys, key...)
		return st.probe(42)
	}
	keys := [][]byte{{1}, {1, 2}, {2, 1}, {}, {1, 2, 3}}
	for i := 0; i < 200; i++ {
		keys = append(keys, []byte{3, byte(i)})
	}
	for i, k := range keys {
		if e, found := probe(k); found || e != i {
			t.Fatalf("insert %v: entry %d found %v, want new entry %d", k, e, found, i)
		}
	}
	for i, k := range keys {
		e, found := probe(k)
		if !found || e != i || string(st.keys[st.start(e):st.entries[e].end]) != string(k) {
			t.Fatalf("lookup %v: entry %d found %v, want entry %d", k, e, found, i)
		}
	}
	if e, found := probe([]byte{9, 9}); found || e != len(keys) {
		t.Fatalf("unseen key matched entry %d", e)
	}
}

// A system reused after a long-period placement does not keep that
// placement's arenas: FindCycle releases them once they exceed
// retainLimit, and a short run after Reset grows only what it needs.
func TestFindCycleReleasesLargeArenas(t *testing.T) {
	for _, k := range bothKernels {
		sys := kernelSystem(k, Config{Banks: 47, BankBusy: 11, CPUs: 3},
			StreamSpec{Distance: 1}, StreamSpec{Start: 1, Distance: 25, CPU: 1}, StreamSpec{Start: 3, Distance: 26, CPU: 2})
		if c, err := sys.FindCycle(1 << 22); err != nil || c.Length != 28200 {
			t.Fatalf("%v kernel: long run %+v, %v; want length 28200", k, c, err)
		}
		if got := sys.states.footprint(); got != 0 {
			t.Errorf("%v kernel: long run keeps %d bytes of arenas", k, got)
		}
		sys.Reset()
		sys.AddStreams(shortCycle.streams...)
		if _, err := sys.FindCycle(1 << 22); err != nil {
			t.Fatal(err)
		}
		if got := sys.states.footprint(); got == 0 || got > retainLimit/16 {
			t.Errorf("%v kernel: short run keeps %d bytes of arenas", k, got)
		}
	}
}
