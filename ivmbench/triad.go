package main

// triad-xmp: the Section IV vector triad on the X-MP machine model
// (Fig. 10a/b), scalar kernel, no sweep engine, cache or cycle
// detection.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ivm/internal/machine"
	"ivm/internal/memsys"
	"ivm/internal/vector"
	"ivm/internal/workload"
	"ivm/internal/xmp"
)

const (
	triadN      = 1024
	triadMaxInc = 16
)

// fig10 is the triad's expected outcome per INC: clocks and the
// bank / section / simultaneous conflict counts of Fig. 10c–e.
type fig10 struct {
	Clocks, Bank, Section, Simultaneous int64
}

// fig10Busy is the busy-environment table of EXPERIMENTS.md ("Measured
// series (busy environment — Fig. 10a/c/d/e)"), index INC-1.
// TestFig10TableMatchesExperiments keeps the two in step.
var fig10Busy = [triadMaxInc]fig10{
	{2541, 2014, 210, 83},
	{4257, 5862, 91, 87},
	{4835, 7701, 94, 284},
	{3665, 4067, 0, 686},
	{3454, 3708, 520, 337},
	{2527, 2141, 109, 208},
	{3606, 4440, 164, 389},
	{5103, 7325, 0, 1165},
	{3077, 2853, 561, 172},
	{3395, 3916, 127, 284},
	{2268, 1087, 340, 121},
	{3144, 3639, 0, 153},
	{4133, 5265, 499, 425},
	{4142, 5662, 170, 459},
	{3836, 4768, 248, 461},
	{10197, 16253, 0, 2082},
}

// checkQuiet applies what EXPERIMENTS.md states for the quiet
// environment (Fig. 10b): 1680–1961 clocks for every INC except the
// self-conflicting strides 8 (3168) and 16 (6216), and no simultaneous
// conflicts.
func checkQuiet(r xmp.TriadResult) error {
	if r.Simultaneous != 0 {
		return fmt.Errorf("quiet INC=%d: %d simultaneous conflicts, want 0", r.INC, r.Simultaneous)
	}
	switch r.INC {
	case 8:
		if r.Clocks != 3168 {
			return fmt.Errorf("quiet INC=8: %d clocks, want 3168", r.Clocks)
		}
	case 16:
		if r.Clocks != 6216 {
			return fmt.Errorf("quiet INC=16: %d clocks, want 6216", r.Clocks)
		}
	default:
		if r.Clocks < 1680 || r.Clocks > 1961 {
			return fmt.Errorf("quiet INC=%d: %d clocks, want 1680–1961", r.INC, r.Clocks)
		}
	}
	return nil
}

// checkTriad compares one result with Fig. 10.
func checkTriad(r xmp.TriadResult, busy bool, table *[triadMaxInc]fig10) error {
	if !busy {
		return checkQuiet(r)
	}
	want := table[r.INC-1]
	got := fig10{r.Clocks, r.Bank, r.Section, r.Simultaneous}
	if got != want {
		return fmt.Errorf("busy INC=%d: got %+v, want %+v", r.INC, got, want)
	}
	return nil
}

type triadPoint struct {
	inc  int
	busy bool
}

// triadOrder is the seed's order of the 32 (INC, environment) points
// for the single-experiment half of each repetition. The figures do
// not depend on the seed; only the order does.
func triadOrder(seed int64) []triadPoint {
	var pts []triadPoint
	for _, busy := range []bool{true, false} {
		for inc := 1; inc <= triadMaxInc; inc++ {
			pts = append(pts, triadPoint{inc, busy})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// triadSetup builds what TriadExperiment builds before it runs: the
// X-MP memory, the background streams, the triad CPU and its loaded
// program, for every point. It is the triad's set-up time.
func triadSetup(mcfg machine.Config, pts []triadPoint) time.Duration {
	t0 := time.Now()
	for _, p := range pts {
		sim := &machine.Simulation{Mem: memsys.New(xmp.MemConfig())}
		cb := vector.NewCommonBlock(0)
		a := cb.Declare("A", xmp.IDim)
		b := cb.Declare("B", xmp.IDim)
		c := cb.Declare("C", xmp.IDim)
		d := cb.Declare("D", xmp.IDim)
		if p.busy {
			sim.AddBackgroundStream(0, "bg0", 0, 1)
			sim.AddBackgroundStream(0, "bg1", 1, 1)
			sim.AddBackgroundStream(0, "bg2", 2, 1)
		}
		cpu := machine.NewCPU(sim.Mem, 1, mcfg)
		cpu.LoadProgram(workload.Triad(a, b, c, d, triadN, p.inc, mcfg))
	}
	return time.Since(t0)
}

// runTriad measures triad-xmp. Each repetition takes one set-up sample,
// then runs xmp.TriadSweep in
// the busy and then the quiet environment (together the batch latency:
// Fig. 10a and 10b) and then the 32 points one
// xmp.TriadExperiment at a time in the seed's order (the single
// latency). Every result is checked against Fig. 10.
func runTriad(cfg config, table *[triadMaxInc]fig10) *result {
	res := newResult()
	mcfg := machine.DefaultConfig().Normalized()
	pts := triadOrder(cfg.seed)
	var setups []time.Duration
	var singles, sweeps samples
	ws := newWindowSet()
	var clocks int64
	var busyTime time.Duration
	check := func(r xmp.TriadResult, busy bool) {
		res.attempted++
		if err := checkTriad(r, busy, table); err != nil {
			res.failed++
			res.infof("wrong answer: %v", err)
		}
		clocks += r.Clocks
	}
	deadline := time.Now().Add(cfg.duration)
	for time.Now().Before(deadline) {
		runtime.GC() // untimed: each set-up sample starts from a collected heap
		setups = append(setups, triadSetup(mcfg, pts))
		t0 := time.Now()
		busySweep := xmp.TriadSweep(triadMaxInc, triadN, true, machine.DefaultConfig())
		quietSweep := xmp.TriadSweep(triadMaxInc, triadN, false, machine.DefaultConfig())
		d := time.Since(t0)
		sweeps.add(d)
		rep := d
		for _, r := range busySweep {
			check(r, true)
		}
		for _, r := range quietSweep {
			check(r, false)
		}
		for _, p := range pts {
			t0 := time.Now()
			r := xmp.TriadExperiment(p.inc, triadN, p.busy, machine.DefaultConfig())
			d := time.Since(t0)
			singles.add(d)
			rep += d
			check(r, p.busy)
		}
		busyTime += rep
		ws.add(&singles, &sweeps, int64(2*triadMaxInc+len(pts)), int64(2+len(pts)), rep)
	}
	res.set("setup_s", medianSeconds(setups), "s", len(setups))
	ws.report(res)
	res.infof("sim_clocks_per_s %.6g 1/s (triad clocks per host second)", float64(clocks)/busyTime.Seconds())
	return res
}

// triadClocks runs the 32 points once and returns their clocks, busy
// environment first, INC ascending: the deterministic per-INC counts.
func triadClocks() (busy, quiet [triadMaxInc]int64) {
	for _, r := range xmp.TriadSweep(triadMaxInc, triadN, true, machine.DefaultConfig()) {
		busy[r.INC-1] = r.Clocks
	}
	for _, r := range xmp.TriadSweep(triadMaxInc, triadN, false, machine.DefaultConfig()) {
		quiet[r.INC-1] = r.Clocks
	}
	return busy, quiet
}
