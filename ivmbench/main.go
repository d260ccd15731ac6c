// Command ivmbench is the repository's benchmark: the answer route of
// the interleaved-memory reproduction (analytic gate, canonical-orbit
// cache, bit-packed simulator with steady-state detection), measured
// end to end and layer by layer on four workloads. README.md in this
// directory is its documentation; run.sh builds and runs it:
//
//	bash ivmbench/run.sh --workload census-cold --seed 1 --seconds 20 --trace 0
//
// Every answer is checked against the scalar reference (or, for the
// triad, the Fig. 10 table). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
// before it are for people. The exit status is non-zero when any answer
// was wrong or the run could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ivm/internal/sweep"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	workdir  string // scratch directory inside the checkout, removed at exit
	nproc    int
}

var workloads = []string{"census-cold", "served-warm", "served-mixed", "triad-xmp"}

// referenceEngine is the oracle configuration: one worker, cache off,
// analytic gate off, scalar kernel.
func referenceEngine() *sweep.Engine {
	off := false
	return sweep.NewEngine(sweep.Options{Workers: 1, CacheSize: -1, Analytic: &off, PackedKernel: &off})
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: census-cold, served-warm, served-mixed or triad-xmp")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "ivmbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloads)
		return 2
	}
	cfg.duration = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	cfg.workdir = filepath.Join(".bench_build", fmt.Sprintf("ivmbench-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ivmbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.workdir)

	fmt.Println("# " + hostStamp(cfg.seed, cfg.workload))
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivmbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return report(cfg, res)
}

// runWorkload prepares the workload's inputs (untimed), then measures
// it, untraced or traced.
func runWorkload(cfg config) (*result, error) {
	in, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return runTraced(cfg, in)
	}
	runtime.GC()
	debug.FreeOSMemory()
	var res *result
	switch cfg.workload {
	case "census-cold":
		res = runCensus(cfg, in.census, in.censusRef)
	case "served-warm":
		res, err = runServedWarm(cfg, in.universe, in.logDir)
	case "served-mixed":
		res, err = runServedMixed(cfg, in.universe, in.logDir)
	case "triad-xmp":
		res = runTriad(cfg, in.fig10)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// inputs is what preparation builds from the seed.
type inputs struct {
	census    []sweep.ConfigSpec
	censusRef []string
	universe  *universe
	logDir    string
	fig10     *[triadMaxInc]fig10
}

// prepare builds the workload's inputs and reference answers. A traced
// run also prepares what its layer probes need.
func prepare(cfg config) (*inputs, error) {
	in := &inputs{fig10: &fig10Busy}
	needCensus := cfg.workload == "census-cold" || cfg.trace
	needServed := cfg.workload == "served-warm" || cfg.workload == "served-mixed" || cfg.trace
	if needCensus {
		in.census = censusSpecs(cfg.seed)
		if cfg.workload == "census-cold" {
			in.censusRef = censusReference(in.census)
		}
	}
	if needServed {
		u, err := buildUniverse(cfg.seed, cfg.nproc)
		if err != nil {
			return nil, err
		}
		in.universe = u
		recs := u.full
		if cfg.workload == "served-mixed" {
			recs = u.partial
		}
		in.logDir = filepath.Join(cfg.workdir, "log")
		if err := writeLog(in.logDir, recs); err != nil {
			return nil, fmt.Errorf("write log: %w", err)
		}
	}
	return in, nil
}

// report prints the human-readable lines and the JSON result line, and
// returns the exit status.
func report(cfg config, res *result) int {
	failedShare := float64(res.failed) / float64(max(res.attempted, 1))
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("# %s metrics, workload %s, seed %d, %s measured, %d clients/workers\n", mode, cfg.workload, cfg.seed, cfg.duration, cfg.nproc)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.infof("metric %s is not a number", n)
			res.failed++
			m.Value = 0
			res.metrics[n] = m
		}
		extra := ""
		if m.samples > 0 {
			extra = fmt.Sprintf("  (n=%d)", m.samples)
		}
		fmt.Printf("#   %-32s %14.6g %-6s%s\n", n, m.Value, m.Unit, extra)
	}
	fmt.Printf("#   %-32s %14.6g %-6s  (%d of %d operations)\n", "failed_share", failedShare, "ratio", res.failed, res.attempted)
	for _, line := range res.info {
		fmt.Printf("#   %s\n", line)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivmbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if res.failed > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}
