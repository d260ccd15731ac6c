package main

// census-cold: a cold census of swept specs through Engine.SpecGrid on
// a fresh default engine per repetition.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ivm/internal/memsys"
	"ivm/internal/modmath"
	"ivm/internal/sweep"
)

// The census memories: m = 13 (prime, so every nonzero stride has the
// full return number and nothing self-conflicts) and the X-MP memory.
const (
	censusM  = 13
	censusNC = 4
	xmpM     = 16
	xmpS     = 4
	xmpNC    = 4
)

// censusTriples are the triple-stream distance sets of the census, a
// fixed spread over the m = 13 triple grid; the seed maps each through
// a random unit of Z_13 (see isoScale).
var censusTriples = [][3]int{{1, 2, 3}, {1, 5, 7}, {2, 3, 11}, {4, 6, 9}, {1, 1, 12}, {3, 7, 10}}

// censusCycTriples are the triples repeated under cyclic priority.
var censusCycTriples = [][3]int{{1, 4, 6}, {2, 5, 8}}

// censusStream4 are the four-stream distance sets (m = 13); streams 1
// and 2 hold fixed starts, 3 and 4 are swept (169 placements each).
var censusStream4 = [][]int{{1, 2, 3, 5}, {1, 3, 5, 7}}

// units lists the units of Z_m.
func units(m int) []int {
	var out []int
	for u := 1; u < m; u++ {
		if gcd(u, m) == 1 {
			out = append(out, u)
		}
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// isoScale maps a spec through the bank renumbering j -> u*j + t (mod
// m): every distance is scaled by the unit u, every fixed start by u
// and shifted by t. Such a renumbering is an isomorphism of the memory
// (docs/CACHING.md), so the image has the same cycle lengths, the same
// orbit structure and the same simulation cost: the seed changes the
// inputs the program sees without changing how much work they are.
// Consecutive section mapping admits only shifts by multiples of m/s,
// so callers pass u = 1 and such a t for it.
func isoScale(spec sweep.ConfigSpec, u, t int) sweep.ConfigSpec {
	out := spec
	out.Streams = make([]sweep.Stream, len(spec.Streams))
	for i, st := range spec.Streams {
		st.D = modmath.Mod(u*st.D, spec.M)
		st.B = modmath.Mod(u*st.B+t, spec.M)
		out.Streams[i] = st
	}
	return out
}

// xmpPairSpec is a two-CPU pair on the X-MP memory (family
// "section2"): stream 1 on CPU 0 fixed, stream 2 on CPU 1 swept.
func xmpPairSpec(d1, d2 int) sweep.ConfigSpec {
	return sweep.ConfigSpec{M: xmpM, S: xmpS, NC: xmpNC, Streams: []sweep.Stream{
		{D: d1, CPU: 0},
		{D: d2, CPU: 1, Sweep: true},
	}}
}

// censusSpecs builds the seed's census. The seed picks, per family, the
// bank renumbering (isoScale) the family is seen through; the order is
// fixed, heavy families first so the worker pool is not left with one
// long item at the end, so every seed's census costs the same work and
// hits the cache in the same pattern.
func censusSpecs(seed int64) []sweep.ConfigSpec {
	rng := rand.New(rand.NewSource(seed))
	iso := func(specs []sweep.ConfigSpec) []sweep.ConfigSpec {
		// Sectioned memories are canonicalised only under translations by
		// multiples of s, so their shift keeps to those: other shifts are
		// isomorphisms too, but ones the cache does not see through, and
		// they would change the census's miss count with the seed.
		m, step := specs[0].M, max(specs[0].S, 1)
		us := units(m)
		u, t := us[rng.Intn(len(us))], step*rng.Intn(m/step)
		for i := range specs {
			specs[i] = isoScale(specs[i], u, t)
		}
		return specs
	}
	policy := func(specs []sweep.ConfigSpec, p memsys.PriorityRule, mp memsys.SectionMapping) []sweep.ConfigSpec {
		out := make([]sweep.ConfigSpec, len(specs))
		for i, s := range specs {
			out[i] = s.WithPolicy(p, mp)
		}
		return out
	}

	var triples, cycTriples, stream4, xmpPairs []sweep.ConfigSpec
	for _, d := range censusTriples {
		triples = append(triples, sweep.TripleSpec(censusM, censusNC, d))
	}
	for _, d := range censusCycTriples {
		cycTriples = append(cycTriples, sweep.TripleSpec(censusM, censusNC, d).WithPolicy(memsys.CyclicPriority, memsys.CyclicSections))
	}
	for _, d := range censusStream4 {
		s := sweep.NStreamSpec(censusM, censusNC, d)
		s.Streams[1].Sweep = false
		s.Streams[1].B = 1
		stream4 = append(stream4, s)
	}
	for _, p := range sweep.GridSpecs(xmpM, 0, xmpNC) {
		xmpPairs = append(xmpPairs, xmpPairSpec(p.Streams[0].D, p.Streams[1].D))
	}
	consec := policy(sweep.GridSpecs(xmpM, xmpS, xmpNC), memsys.FixedPriority, memsys.ConsecutiveSections)
	t := (xmpM / xmpS) * rng.Intn(xmpS)
	for i := range consec {
		consec[i] = isoScale(consec[i], 1, t)
	}

	var out []sweep.ConfigSpec
	for _, family := range [][]sweep.ConfigSpec{
		iso(triples), iso(cycTriples), iso(stream4), // heavy first
		iso(sweep.GridSpecs(censusM, 0, censusNC)),
		iso(policy(sweep.GridSpecs(censusM, 0, censusNC), memsys.CyclicPriority, memsys.CyclicSections)),
		iso(xmpPairs),
		iso(sweep.GridSpecs(xmpM, xmpS, xmpNC)),
		iso(policy(sweep.GridSpecs(xmpM, xmpS, xmpNC), memsys.CyclicPriority, memsys.CyclicSections)),
		consec,
	} {
		out = append(out, family...)
	}
	return out
}

// rowString renders a census row for the exact comparison with the
// reference: every field of the SpecResult except the spec itself.
func rowString(r sweep.SpecResult) string {
	return fmt.Sprintf("%s %s %s %s %d %d %d", r.SimMin, r.SimMax, r.BoundMin, r.BoundMax, r.Starts, r.TightStarts, r.Violations)
}

// censusReference answers the census on the reference engine.
func censusReference(specs []sweep.ConfigSpec) []string {
	rows := referenceEngine().SpecGrid(specs)
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowString(r)
	}
	return out
}

// defaultEngine is the engine every workload measures: default options
// (gate on, cache on, packed kernel) with one worker per CPU.
func defaultEngine(nproc int, opt sweep.Options) *sweep.Engine {
	opt.Workers = nproc
	return sweep.NewEngine(opt)
}

// setupBlock is how many engines census-cold constructs per set-up
// sample (one construction alone is too short to time); setup_s is the
// median over repetitions of the mean construction time.
const setupBlock = 100

// runCensus measures census-cold: repetitions of a fresh engine and one
// Engine.SpecGrid over the census, until the deadline. A swept spec (one
// work item, timed through the engine's Options.ItemLatency seam) is
// the single latency, a repetition the batch latency. Each row is
// compared with the reference. Every repetition first takes one set-up
// sample, so the samples spread over the run like the other figures.
func runCensus(cfg config, specs []sweep.ConfigSpec, ref []string) *result {
	res := newResult()
	var setups []time.Duration
	engines := make([]*sweep.Engine, setupBlock)
	items := &samples{}
	var reps samples
	ws := newWindowSet()
	var steps int64
	var busy time.Duration
	var last *sweep.Engine
	deadline := time.Now().Add(cfg.duration)
	for time.Now().Before(deadline) {
		runtime.GC() // untimed: each set-up sample starts from a collected heap
		t0 := time.Now()
		for j := range engines {
			engines[j] = defaultEngine(cfg.nproc, sweep.Options{})
		}
		setups = append(setups, time.Since(t0)/setupBlock)

		e := defaultEngine(cfg.nproc, sweep.Options{ItemLatency: items})
		t0 = time.Now()
		rows := e.SpecGrid(specs)
		d := time.Since(t0)
		reps.add(d)
		var placements int64
		for i, r := range rows {
			res.attempted++
			if rowString(r) != ref[i] {
				res.failed++
			}
			placements += int64(r.Starts)
		}
		ws.add(items, &samples{ns: []float64{float64(d.Nanoseconds())}}, placements, int64(len(rows)), d)
		busy += d
		steps += e.Metrics().StepsSimulated
		last = e
	}
	res.set("setup_s", medianSeconds(setups), "s", len(setups))
	ws.report(res)
	res.infof("sim_clocks_per_s %.6g 1/s (steps simulated per census second)", float64(steps)/busy.Seconds())
	res.infof("census: %d specs, %d placements per repetition, %d repetitions; repetition min/p50/max %.1f/%.1f/%.1f ms",
		len(specs), censusPlacementCount(specs), reps.len(), reps.quantile(0)/1e6, reps.quantile(0.5)/1e6, reps.quantile(1)/1e6)
	if last != nil {
		res.infof("worker_busy_ratio %.4f (last repetition, Engine.Snapshot)", busyRatio(last))
	}
	return res
}

// censusPlacementCount is the number of placements a census sweeps.
func censusPlacementCount(specs []sweep.ConfigSpec) int {
	n := 0
	for _, spec := range specs {
		k := 1
		for _, st := range spec.Streams {
			if st.Sweep {
				k *= spec.M
			}
		}
		n += k
	}
	return n
}

// busyRatio is the mean per-worker utilisation Engine.Snapshot reports.
func busyRatio(e *sweep.Engine) float64 {
	snap := e.Snapshot()
	if snap.Workers == 0 {
		return 0
	}
	var sum float64
	for _, w := range snap.PerWorker {
		sum += w.Utilization
	}
	return sum / float64(snap.Workers)
}

// censusPlacements expands the census's swept specs into the fixed
// placements SpecGrid visits, in sweep order, for replay through
// Engine.ResolveBatchCtx.
func censusPlacements(specs []sweep.ConfigSpec) []sweep.ConfigSpec {
	var out []sweep.ConfigSpec
	for _, spec := range specs {
		b := make([]int, len(spec.Streams))
		for i, st := range spec.Streams {
			b[i] = st.B
		}
		var rec func(i int)
		rec = func(i int) {
			if i == len(spec.Streams) {
				p := spec
				p.Streams = make([]sweep.Stream, len(spec.Streams))
				for j, st := range spec.Streams {
					p.Streams[j] = sweep.Stream{D: st.D, B: b[j], CPU: st.CPU}
				}
				out = append(out, p)
				return
			}
			if !spec.Streams[i].Sweep {
				rec(i + 1)
				return
			}
			for s := 0; s < spec.M; s++ {
				b[i] = s
				rec(i + 1)
			}
			b[i] = spec.Streams[i].B
		}
		rec(0)
	}
	return out
}
