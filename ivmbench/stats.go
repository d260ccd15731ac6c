package main

// Measurement helpers: latency samples with percentiles, the result a
// workload hands back to main, peak resident memory, and the host
// stamp printed beside every result.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// samples is a list of durations in nanoseconds, safe for concurrent
// appends.
type samples struct {
	mu sync.Mutex
	ns []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, float64(d.Nanoseconds()))
	s.mu.Unlock()
}

// ObserveNS lets a samples list serve as a sweep.LatencySink.
func (s *samples) ObserveNS(ns int64) {
	s.mu.Lock()
	s.ns = append(s.ns, float64(ns))
	s.mu.Unlock()
}

// drain returns the samples and empties the list.
func (s *samples) drain() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ns
	s.ns = nil
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

// quantile returns the q-quantile (0..1) in nanoseconds, linearly
// interpolated between closest ranks; NaN on an empty list.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.ns...)
	s.mu.Unlock()
	return quantile(v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// metric is one reported figure. samples is the count it was derived
// from (0 when it is not a sample statistic); it is printed beside the
// value in the human-readable lines, never in the JSON line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is what one workload run reports.
type result struct {
	attempted, failed int64
	metrics           map[string]metric
	// info holds figures printed for people but kept out of the JSON
	// line (failed_share, sim_clocks_per_s on the workloads it is not
	// a contract metric of, per-INC triad clocks, ...).
	info []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, samples: n}
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// medianSeconds is the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return quantile(v, 0.5)
}

// windowSpan is the length of a measurement window. A run is cut into
// windows at repetition boundaries; every end-to-end figure is computed
// per window and reported as the median over windows, so a burst of
// interference from other tenants of the host moves a few windows, not
// the result.
const windowSpan = time.Second

// window is what one window measured.
type window struct {
	single, batch []float64 // latency samples, ns
	placements    float64
	ops           float64
	busy          time.Duration
	peakMB        float64
}

// windowSet collects a run's windows.
type windowSet struct {
	list    []window
	cur     window
	opened  time.Time
	resetOK bool
	rssErr  error
}

func newWindowSet() *windowSet {
	return &windowSet{opened: time.Now(), resetOK: resetPeakRSS()}
}

// add folds one repetition into the current window, draining the
// repetition's latency samples, and closes the window once it has run
// for windowSpan.
func (ws *windowSet) add(single, batch *samples, placements, ops int64, busy time.Duration) {
	if single != nil {
		ws.cur.single = append(ws.cur.single, single.drain()...)
	}
	if batch != nil {
		ws.cur.batch = append(ws.cur.batch, batch.drain()...)
	}
	ws.cur.placements += float64(placements)
	ws.cur.ops += float64(ops)
	ws.cur.busy += busy
	if time.Since(ws.opened) >= windowSpan {
		ws.close()
	}
}

func (ws *windowSet) close() {
	if ws.cur.ops == 0 {
		return
	}
	mb, err := peakRSSMB()
	if err != nil {
		ws.rssErr = err
	}
	ws.cur.peakMB = mb
	ws.list = append(ws.list, ws.cur)
	ws.cur = window{}
	ws.opened = time.Now()
	ws.resetOK = resetPeakRSS() && ws.resetOK
}

// medianOver is the median over windows of f.
func (ws *windowSet) medianOver(f func(w window) float64) float64 {
	v := make([]float64, len(ws.list))
	for i, w := range ws.list {
		v[i] = f(w)
	}
	return quantile(v, 0.5)
}

// latency is the median over groups of consecutive windows of the
// q-quantile of their samples, in ms. Windows are grouped until a group
// holds enough samples for at least ten beyond the quantile; the
// returned count is the number of samples.
func (ws *windowSet) latency(q float64, pick func(w window) []float64) (float64, int) {
	need := int(math.Ceil(10 / (1 - q)))
	var per, group []float64
	total := 0
	for _, w := range ws.list {
		group = append(group, pick(w)...)
		total += len(pick(w))
		if len(group) >= need {
			per = append(per, quantile(group, q))
			group = nil
		}
	}
	if len(per) == 0 {
		per = append(per, quantile(group, q))
	}
	return quantile(per, 0.5) / 1e6, total
}

// report sets the end-to-end metrics every workload shares.
func (ws *windowSet) report(res *result) {
	ws.close()
	n := len(ws.list)
	res.set("placements_per_s", ws.medianOver(func(w window) float64 { return w.placements / w.busy.Seconds() }), "1/s", n)
	res.set("req_per_s", ws.medianOver(func(w window) float64 { return w.ops / w.busy.Seconds() }), "1/s", n)
	single := func(w window) []float64 { return w.single }
	batch := func(w window) []float64 { return w.batch }
	for _, m := range []struct {
		name string
		q    float64
		pick func(window) []float64
	}{{"single_p50_ms", 0.5, single}, {"single_p99_ms", 0.99, single}, {"batch_p50_ms", 0.5, batch}} {
		v, k := ws.latency(m.q, m.pick)
		res.set(m.name, v, "ms", k)
	}
	res.set("peak_rss_mb", ws.medianOver(func(w window) float64 { return w.peakMB }), "MB", n)
	if ws.rssErr != nil {
		res.infof("peak_rss_mb unavailable: %v", ws.rssErr)
	}
	if !ws.resetOK {
		res.infof("peak_rss_mb is the running peak (the kernel's peak counter could not be reset)")
	}
	res.infof("%d windows of about %s; rates and latencies are medians over windows", n, windowSpan)
}

// resetPeakRSS restarts the kernel's peak-resident-set counter for this
// process, so the peak read later covers only what follows (not the
// untimed preparation). It reports whether the reset worked.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// hostStamp identifies where and on what code a result was measured.
func hostStamp(seed int64, workload string) string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source=%s seed=%d workload=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), gitCommit(), sourceDigest(), seed, workload)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "none" outside a git work tree
// (the source digest then identifies the code).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under the working
// directory (the checkout's root; hidden directories such as
// .bench_build are skipped), so two results can be tied to the same
// code without git.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
