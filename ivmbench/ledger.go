package main

// The layer ledger of the traced run: in-process replays of the
// memsys, cachestore, core and machine layers on the seed's inputs,
// and the deterministic counts that must repeat exactly for a seed.
// Every traced run does these, whatever its workload.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ivm/internal/cachestore"
	"ivm/internal/core"
	"ivm/internal/machine"
	"ivm/internal/memsys"
	"ivm/internal/sweep"
	"ivm/internal/xmp"
)

// cycleBudget is the clock budget the replays give FindCycle, the
// engine's own budget.
const cycleBudget = 1 << 22

func ledger(cfg config, in *inputs, res *result) error {
	// Deterministic counts: one cold census on a one-worker default
	// engine (a single worker has no concurrent misses, so the counts
	// repeat exactly), whose cached orbits feed the replays below.
	e := sweep.NewEngine(sweep.Options{Workers: 1})
	e.SpecGrid(in.census)
	m := e.Metrics()
	res.set("memsys.cycles_found", float64(m.CyclesFound), "count", 0)
	res.set("memsys.steps_simulated", float64(m.StepsSimulated), "count", 0)
	recs := e.CacheRecords()
	if err := memsysReplay(recs, res); err != nil {
		return err
	}
	if err := cachestoreReplay(cfg, recs, res); err != nil {
		return err
	}
	coreReplay(cfg.seed, in.census, res)
	machineReplay(res)
	return nil
}

// recordConfig is the memory a cache record was simulated on; the
// family suffixes name its policies (sweep.ConfigSpec.Family).
func recordConfig(rec sweep.CacheRecord) memsys.Config {
	cfg := memsys.Config{Banks: rec.M, Sections: rec.S, BankBusy: rec.NC, CPUs: 1}
	for _, c := range rec.CPUs {
		cfg.CPUs = max(cfg.CPUs, c+1)
	}
	if strings.Contains(rec.Family, "-consec") {
		cfg.Mapping = memsys.ConsecutiveSections
	}
	switch {
	case strings.HasSuffix(rec.Family, "-cyc"):
		cfg.Priority = memsys.CyclicPriority
	case strings.HasSuffix(rec.Family, "-rrcpu"):
		cfg.Priority = memsys.RoundRobinPerCPU
	}
	return cfg
}

func recordSystem(rec sweep.CacheRecord) *memsys.System {
	sys := memsys.New(recordConfig(rec))
	sys.SetKernel(memsys.KernelPacked)
	n := len(rec.CPUs)
	streams := make([]memsys.StreamSpec, n)
	for i := range streams {
		streams[i] = memsys.StreamSpec{Start: rec.Vec[n+i], Distance: rec.Vec[i], CPU: rec.CPUs[i]}
	}
	sys.AddStreams(streams...)
	return sys
}

// memsysReplay times memsys.New + AddStreams + FindCycle on the packed
// kernel for every canonical vector the census simulated, checks each
// bandwidth against the record, and counts FindCycle's allocations.
func memsysReplay(recs []sweep.CacheRecord, res *result) error {
	if len(recs) == 0 {
		return fmt.Errorf("memsys replay: the census cached no orbits")
	}
	var simNS, findNS, clocks int64
	for _, rec := range recs {
		t0 := time.Now()
		sys := recordSystem(rec)
		t1 := time.Now()
		c, err := sys.FindCycle(cycleBudget)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("memsys replay: %w", err)
		}
		res.attempted++
		if c.EffectiveBandwidth() != rec.BW {
			res.failed++
			res.infof("memsys replay %s %v: b_eff %s, cached %s", rec.Family, rec.Vec, c.EffectiveBandwidth(), rec.BW)
		}
		simNS += t2.Sub(t0).Nanoseconds()
		findNS += t2.Sub(t1).Nanoseconds()
		clocks += c.Lead + c.Length
	}
	n := float64(len(recs))
	res.set("memsys.simulate_us", float64(simNS)/n/1e3, "us", len(recs))
	res.set("memsys.find_cycle_us", float64(findNS)/n/1e3, "us", len(recs))
	res.set("memsys.clocks_per_find_cycle", float64(clocks)/n, "clocks", len(recs))
	res.set("memsys.ns_per_clock", float64(findNS)/float64(clocks), "ns", 0)

	systems := make([]*memsys.System, len(recs))
	for i, rec := range recs {
		systems[i] = recordSystem(rec)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sys := range systems {
		sys.FindCycle(cycleBudget) //nolint:errcheck // the timed pass above checked every vector
	}
	runtime.ReadMemStats(&after)
	res.set("memsys.allocs_per_find_cycle", float64(after.Mallocs-before.Mallocs)/n, "allocs", len(recs))
	return nil
}

// cachestoreReplay appends the census's records to a fresh store
// (cachestore.Put, then one Sync), then reopens it five times
// (cachestore.Open: read, verify and index the log).
func cachestoreReplay(cfg config, recs []sweep.CacheRecord, res *result) error {
	dir := filepath.Join(cfg.workdir, "ledger-store")
	st, err := cachestore.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, r := range recs {
		st.Put(r)
	}
	put := time.Since(t0)
	t1 := time.Now()
	if err := st.Sync(); err != nil {
		return err
	}
	sync := time.Since(t1)
	if err := st.Close(); err != nil {
		return err
	}
	var opens []time.Duration
	records := 0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		st, err := cachestore.Open(dir)
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t0))
		records = st.Len()
		if err := st.Close(); err != nil {
			return err
		}
	}
	res.attempted++
	if records != len(recs) {
		res.failed++
		res.infof("cachestore replay: reopened %d records, appended %d", records, len(recs))
	}
	res.set("cachestore.open_ms", medianSeconds(opens)*1e3, "ms", len(opens))
	res.set("cachestore.records", float64(records), "count", 0)
	res.set("cachestore.put_us", put.Seconds()*1e6/float64(len(recs)), "us", len(recs))
	res.infof("cachestore: one Sync after %d appends took %.3f ms", len(recs), sync.Seconds()*1e3)
	return nil
}

// coreReplay times core.NewPairGateUnder + BandwidthAt over the
// census's sectionless pair placements and the seed's theorem-provable
// m in {16, 32} pairs: what the engine does per gated placement.
func coreReplay(seed int64, census []sweep.ConfigSpec, res *result) {
	var pairs []sweep.ConfigSpec
	for _, p := range censusPlacements(census) {
		if p.S == 0 && len(p.Streams) == 2 {
			pairs = append(pairs, p)
		}
	}
	pairs = append(pairs, gateSpecs(rand.New(rand.NewSource(seed)), universeGate)...)
	answered := 0
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range pairs {
			g := core.NewPairGateUnder(p.M, p.NC, p.Streams[0].D, p.Streams[1].D, p.Priority)
			if _, ok := g.BandwidthAt(p.Streams[0].B, p.Streams[1].B); ok {
				answered++
			}
		}
	}
	d := time.Since(t0)
	n := reps * len(pairs)
	res.set("core.gate_ns", float64(d.Nanoseconds())/float64(n), "ns", n)
	res.set("core.gate_answer_ratio", float64(answered)/float64(n), "ratio", 0)
}

// machineReplay runs the 32 triad points three times for ns per
// simulated clock, once more between two MemStats reads for
// allocations per clock, and prints the per-INC clocks, which must
// repeat exactly.
func machineReplay(res *result) {
	var ns, clocks int64
	for rep := 0; rep < 3; rep++ {
		for _, busy := range []bool{true, false} {
			for inc := 1; inc <= triadMaxInc; inc++ {
				t0 := time.Now()
				r := xmp.TriadExperiment(inc, triadN, busy, machine.DefaultConfig())
				ns += time.Since(t0).Nanoseconds()
				clocks += r.Clocks
			}
		}
	}
	res.set("machine.ns_per_clock", float64(ns)/float64(clocks), "ns", 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	busy, quiet := triadClocks()
	runtime.ReadMemStats(&after)
	var total int64
	for i := range busy {
		total += busy[i] + quiet[i]
		res.attempted++
		if busy[i] != fig10Busy[i].Clocks || checkQuiet(xmp.TriadResult{INC: i + 1, Clocks: quiet[i]}) != nil {
			res.failed++
			res.infof("machine replay INC=%d: clocks %d busy / %d quiet disagree with Fig. 10", i+1, busy[i], quiet[i])
		}
	}
	res.set("machine.allocs_per_clock", float64(after.Mallocs-before.Mallocs)/float64(total), "allocs", 0)
	res.set("machine.triad_clocks", float64(total), "clocks", 0)
	res.infof("triad clocks per INC 1..16, busy:  %v", busy)
	res.infof("triad clocks per INC 1..16, quiet: %v", quiet)
}
