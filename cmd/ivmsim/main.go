// Command ivmsim runs an ad-hoc interleaved-memory simulation: choose
// the system (m, s, n_c, priority, mapping) and up to nine access
// streams "start:distance[:cpu]", get the paper-style timeline, the
// steady-state effective bandwidth and the conflict breakdown.
//
// Example (Fig. 3's barrier):
//
//	ivmsim -m 13 -nc 6 -streams 0:1,0:6
//
// Observability: one trace.Recorder observes the timeline run and
// holds all of it. -trace-out exports it as a Chrome trace_event file
// (chrome://tracing, Perfetto), -csv-out as a CSV timeline
// (-csv-stream writes the same rows while the run executes), -strip
// prints the bank-occupancy strip chart, -phase-hist prints the
// per-cycle conflict phase histogram of the steady state (-phase-csv
// exports it), and -metrics-out writes the statistics, trace totals
// and phase histogram as JSON. -metrics-addr
// serves the shared debug endpoints (/metrics Prometheus liveness,
// /healthz, expvar, pprof) while the run executes, and
// -cpuprofile/-memprofile/-trace profile the run itself.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/modmath"
	"ivm/internal/obs"
	"ivm/internal/obs/profile"
	"ivm/internal/textplot"
	"ivm/internal/trace"
)

func main() {
	m := flag.Int("m", 16, "number of banks")
	s := flag.Int("s", 0, "number of sections (0 = one per bank)")
	nc := flag.Int("nc", 4, "bank busy time in clock periods")
	cpus := flag.Int("cpus", 2, "number of CPUs (path groups)")
	streamsFlag := flag.String("streams", "0:1,0:6", "comma-separated streams start:distance[:cpu]")
	clocks := flag.Int64("clocks", 40, "timeline width in clock periods")
	priority := flag.String("priority", "fixed", "priority rule: fixed|cyclic|rr-cpu")
	mapping := flag.String("mapping", "cyclic", "bank-to-section mapping: cyclic|consecutive")
	analyze := flag.Bool("analyze", true, "print the analytic verdict for two-stream runs")
	statsFlag := flag.Bool("stats", false, "print per-bank utilisation and delay-run statistics")
	statsClocks := flag.Int64("statsclocks", 2048, "clocks to gather statistics over")
	traceOut := flag.String("trace-out", "", "write the timeline window as Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	csvOut := flag.String("csv-out", "", "write the timeline window as a CSV event timeline")
	csvStream := flag.String("csv-stream", "", "stream the whole timeline run to this CSV file while it runs (the same rows as -csv-out)")
	stripFlag := flag.Bool("strip", false, "print the timeline window's bank-occupancy strip chart")
	phaseHist := flag.Bool("phase-hist", false, "print the steady-state cycle's conflict phase histogram (grants/conflicts by clock phase and bank)")
	phaseCSV := flag.String("phase-csv", "", "write the phase histogram as CSV (phase x bank, long form)")
	metricsOut := flag.String("metrics-out", "", "write statistics, trace totals and the phase histogram as a JSON metrics snapshot")
	metricsAddr := flag.String("metrics-addr", "", "serve liveness and debug endpoints on this address: /metrics Prometheus text, /healthz, /debug/vars expvar, /debug/pprof")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	if err := validateSimFlags(*clocks, *statsClocks); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	stop, err := prof.Start()
	if err != nil {
		fail("%v", err)
	}
	if *metricsAddr != "" {
		closer, err := obs.ServeMetrics("ivmsim", *metricsAddr, nil, nil)
		if err != nil {
			fail("%v", err)
		}
		defer closer.Close()
	}

	cfg := memsys.Config{Banks: *m, Sections: *s, BankBusy: *nc, CPUs: *cpus}
	if cfg.Priority, err = memsys.ParsePriority(*priority); err != nil {
		fail("%v", err)
	}
	if cfg.Mapping, err = memsys.ParseMapping(*mapping); err != nil {
		fail("%v", err)
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	specs, err := parseStreams(*streamsFlag, *m, *cpus)
	if err != nil {
		fail("%v", err)
	}

	// One recorder observes the timeline run. Each port emits one event
	// per clock, so a window of ports·clocks events holds the whole run:
	// the diagram and every export below see all of it.
	sys := memsys.New(cfg)
	rec := trace.Attach(sys, len(specs)*int(*clocks))
	var streamFile *os.File
	if *csvStream != "" {
		if streamFile, err = os.Create(*csvStream); err != nil {
			fail("%v", err)
		}
		rec.StreamCSV(streamFile)
	}
	sys.AddStreams(specs...)
	sys.Run(*clocks)
	if streamFile != nil {
		if err := errors.Join(rec.Close(), streamFile.Close()); err != nil {
			fail("csv stream: %v", err)
		}
	}
	if *s != 0 && *s != *m {
		fmt.Print(rec.RenderWithSections(*clocks, sys.Section))
	} else {
		fmt.Print(rec.Render(*clocks))
	}
	fmt.Println(trace.Legend())
	fmt.Println()

	// One steady-state detection on a fresh system gives the exact
	// cycle and its phase histogram.
	phist, cyc, err := obs.TracePhaseHistogram(cfg, specs, 1<<22)
	if err != nil {
		fail("cycle detection: %v", err)
	}
	fmt.Printf("steady state: b_eff = %s (cycle length %d, lead-in %d)\n\n", cyc.EffectiveBandwidth(), cyc.Length, cyc.Lead)
	tbl := &textplot.Table{Header: []string{"stream", "start", "distance", "cpu", "b_eff", "bank", "simult", "section"}}
	for i, sp := range specs {
		c := cyc.Conflicts[i]
		tbl.Add(i+1, sp.Start, sp.Distance, sp.CPU, cyc.PortBandwidth(i).String(), c.Bank, c.Simultaneous, c.Section)
	}
	fmt.Print(tbl.String())

	if *analyze && len(specs) == 2 && (*s == 0 || *s == *m) {
		a := core.Analyze(*m, *nc, specs[0].Distance, specs[1].Distance)
		fmt.Printf("\nanalytic verdict: %s\n%s\n", a, a.Note)
	}

	if *phaseHist {
		fmt.Println()
		fmt.Print(phist.Render())
	}
	if *phaseCSV != "" {
		if err := writeFile(*phaseCSV, func(w *os.File) error {
			return obs.WritePhaseCSV(w, phist)
		}); err != nil {
			fail("%v", err)
		}
	}

	var counts *trace.Recorder
	if *statsFlag || *metricsOut != "" {
		sys3 := memsys.New(cfg)
		counts = trace.Attach(sys3, 0)
		sys3.AddStreams(specs...)
		sys3.Run(*statsClocks)
	}
	if *statsFlag {
		fmt.Printf("\nstatistics over %d clocks:\n%s", *statsClocks, counts.Report())
		for i := range specs {
			if runs := counts.DelayRunLengths(i); len(runs) > 0 {
				fmt.Printf("stream %d delay-run lengths: %v\n", i+1, runs)
			}
		}
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w *os.File) error {
			return obs.WriteChromeTrace(w, obs.SimTrack(rec))
		}); err != nil {
			fail("%v", err)
		}
	}
	if *csvOut != "" {
		if err := writeFile(*csvOut, func(w *os.File) error {
			return trace.WriteCSV(w, rec)
		}); err != nil {
			fail("%v", err)
		}
	}
	if *stripFlag {
		fmt.Println()
		fmt.Print(obs.StripChart(rec))
	}
	if *metricsOut != "" {
		cs, ws := counts.Snapshot(), rec.WindowStats()
		snap := obs.Snapshot{Stats: &cs, Trace: &ws, PhaseHistogram: &phist}
		if err := obs.WriteSnapshotFile(*metricsOut, snap); err != nil {
			fail("%v", err)
		}
	}
	if err := stop(); err != nil {
		fail("%v", err)
	}
}

// maxStreams bounds -streams; the diagram labels streams 1..9.
const maxStreams = 9

// validateSimFlags rejects clock counts that neither the timeline
// recorder nor the statistics run can size — negative ones, and
// timelines whose event window (one event per stream per clock) would
// overflow — with a usage error before any work starts.
func validateSimFlags(clocks, statsClocks int64) error {
	if clocks < 0 || clocks > math.MaxInt/maxStreams {
		return fmt.Errorf("-clocks wants a timeline width in [0, %d], got %d", math.MaxInt/maxStreams, clocks)
	}
	if statsClocks < 0 {
		return fmt.Errorf("-statsclocks wants a non-negative clock count, got %d", statsClocks)
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseStreams(flagVal string, m, cpus int) ([]memsys.StreamSpec, error) {
	var specs []memsys.StreamSpec
	for i, part := range strings.Split(flagVal, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("stream %d: want start:distance[:cpu], got %q", i+1, part)
		}
		start, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("stream %d start: %v", i+1, err)
		}
		dist, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("stream %d distance: %v", i+1, err)
		}
		cpu := i % cpus
		if len(fields) == 3 {
			if cpu, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("stream %d cpu: %v", i+1, err)
			}
			if cpu < 0 || cpu >= cpus {
				return nil, fmt.Errorf("stream %d cpu %d out of range [0,%d)", i+1, cpu, cpus)
			}
		}
		specs = append(specs, memsys.StreamSpec{Start: modmath.Mod(start, m), Distance: modmath.Mod(dist, m), CPU: cpu})
	}
	if len(specs) == 0 || len(specs) > maxStreams {
		return nil, fmt.Errorf("need 1..%d streams, got %d", maxStreams, len(specs))
	}
	return specs, nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
