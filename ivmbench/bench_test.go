package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ivm/internal/sweep"
)

func testConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 1, duration: 300 * time.Millisecond, nproc: runtime.NumCPU(), workdir: t.TempDir()}
}

// A wrong reference answer must show as failed operations and a
// non-zero exit status: the correctness gate is live, not decorative.
func TestCorruptCensusReferenceFails(t *testing.T) {
	cfg := testConfig(t, "census-cold")
	specs := censusSpecs(cfg.seed)
	specs = specs[len(specs)-40:] // light families only: a quick reference
	ref := censusReference(specs)

	clean := runCensus(cfg, specs, ref)
	if clean.failed != 0 || clean.attempted == 0 {
		t.Fatalf("clean run: %d of %d failed", clean.failed, clean.attempted)
	}
	ref[7] = "1/3 " + ref[7]
	res := runCensus(cfg, specs, ref)
	if res.failed == 0 {
		t.Fatalf("corrupted reference: failed_share 0 over %d operations", res.attempted)
	}
	if code := report(cfg, res); code == 0 {
		t.Fatalf("corrupted reference: exit status 0")
	}
}

func TestCorruptServedReferenceFails(t *testing.T) {
	cfg := testConfig(t, "served-warm")
	u, err := buildUniverse(cfg.seed, cfg.nproc)
	if err != nil {
		t.Fatal(err)
	}
	dir := cfg.workdir + "/log"
	if err := writeLog(dir, u.full); err != nil {
		t.Fatal(err)
	}
	clean, err := runServedWarm(cfg, u, dir)
	if err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Fatalf("clean run: %d of %d failed", clean.failed, clean.attempted)
	}
	for _, idx := range u.gate {
		u.entries[idx].ref.Num++ // every gate answer is now wrong
	}
	res, err := runServedWarm(cfg, u, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatalf("corrupted reference: failed_share 0 over %d operations", res.attempted)
	}
	if code := report(cfg, res); code == 0 {
		t.Fatalf("corrupted reference: exit status 0")
	}
}

func TestCorruptFig10Fails(t *testing.T) {
	cfg := testConfig(t, "triad-xmp")
	table := fig10Busy
	table[2].Bank++
	res := runTriad(cfg, &table)
	if res.failed == 0 {
		t.Fatalf("corrupted Fig. 10 table: failed_share 0 over %d operations", res.attempted)
	}
	if code := report(cfg, res); code == 0 {
		t.Fatalf("corrupted Fig. 10 table: exit status 0")
	}
}

// The triad's expected figures are the busy-environment table of
// EXPERIMENTS.md; the benchmark's copy must not drift from it.
func TestFig10TableMatchesExperiments(t *testing.T) {
	f, err := os.Open("../EXPERIMENTS.md")
	if err != nil {
		t.Skipf("EXPERIMENTS.md not beside the benchmark: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	rows := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "Measured series (busy environment") {
			in = true
			continue
		}
		if !in || !strings.HasPrefix(line, "| ") {
			if in && rows > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		inc, err := strconv.Atoi(strings.TrimSpace(cells[0]))
		if err != nil {
			continue // header or separator
		}
		num := func(i int) int64 {
			v, err := strconv.ParseInt(strings.TrimSpace(cells[i]), 10, 64)
			if err != nil {
				t.Fatalf("INC %d column %d: %v", inc, i, err)
			}
			return v
		}
		want := fig10{num(1), num(3), num(4), num(5)}
		if fig10Busy[inc-1] != want {
			t.Errorf("INC %d: benchmark has %+v, EXPERIMENTS.md %+v", inc, fig10Busy[inc-1], want)
		}
		rows++
	}
	if rows != triadMaxInc {
		t.Fatalf("read %d rows of the Fig. 10 table, want %d", rows, triadMaxInc)
	}
}

// Different seeds must give different inputs but the same amount of
// work, or the spread across seeded runs would measure the seeds.
func TestCensusSeedsAreIsomorphic(t *testing.T) {
	a, b := censusSpecs(1), censusSpecs(2)
	if len(a) != len(b) || censusPlacementCount(a) != censusPlacementCount(b) {
		t.Fatalf("census sizes differ: %d/%d specs", len(a), len(b))
	}
	same := 0
	for i := range a {
		if a[i].Streams[0].D == b[i].Streams[0].D && a[i].Streams[1].D == b[i].Streams[1].D {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("seeds 1 and 2 give the same census")
	}
	count := func(specs []sweep.ConfigSpec) sweep.Metrics {
		e := sweep.NewEngine(sweep.Options{Workers: 1})
		e.SpecGrid(specs)
		return e.Metrics()
	}
	ma, mb := count(a), count(b)
	if ma.CyclesFound != mb.CyclesFound || ma.StepsSimulated != mb.StepsSimulated {
		t.Fatalf("seed 1 simulates %d cycles / %d steps, seed 2 %d / %d",
			ma.CyclesFound, ma.StepsSimulated, mb.CyclesFound, mb.StepsSimulated)
	}
}

// The served universe, too: another seed's specs differ, but its
// orbits, the logs built from them and the orbits the mixed log leaves
// out correspond one to one.
func TestServedSeedsAreIsomorphic(t *testing.T) {
	a, err := buildUniverse(1, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildUniverse(2, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.full) != len(b.full) || len(a.partial) != len(b.partial) {
		t.Fatalf("logs differ: %d/%d records vs %d/%d", len(a.full), len(a.partial), len(b.full), len(b.partial))
	}
	same := 0
	for i := range a.entries {
		if a.entries[i].unseen != b.entries[i].unseen {
			t.Fatalf("entry %d: unseen %v vs %v", i, a.entries[i].unseen, b.entries[i].unseen)
		}
		if string(a.entries[i].body) == string(b.entries[i].body) {
			same++
		}
	}
	if same == len(a.entries) {
		t.Fatalf("seeds 1 and 2 give the same universe")
	}
}
