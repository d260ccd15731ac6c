package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"ivm/internal/sweep"
)

// A progress tracker attached to an engine must see exactly the
// engine's work: every planned item announced, every item completed.
func TestProgressTracksEngine(t *testing.T) {
	prog := NewProgress(nil)
	eng := sweep.NewEngine(sweep.Options{Workers: 2, Progress: prog})
	eng.Grid(13, 4)
	eng.SpecGrid(sweep.TripleSpecs(5, 2))
	s := prog.Snapshot()
	if s.Total == 0 || s.Total != s.Done {
		t.Errorf("after completed sweeps: total %d done %d", s.Total, s.Done)
	}
	if want := eng.Metrics().PairsSwept; s.Done != want {
		t.Errorf("done %d != engine sweep units %d", s.Done, want)
	}
	if s.Elapsed <= 0 || s.Rate <= 0 {
		t.Errorf("no throughput measured: %+v", s)
	}
	if s.ETA != 0 {
		t.Errorf("finished run projects ETA %v", s.ETA)
	}
}

func TestProgressLineAndPaths(t *testing.T) {
	prov := sweep.NewProvenance(0)
	prog := NewProgress(prov)
	eng := sweep.NewEngine(sweep.Options{Workers: 2, Progress: prog, Provenance: prov})
	eng.Grid(13, 4)
	line := prog.Line()
	for _, want := range []string{"progress:", "items/s", "ETA", "analytic", "cache", "sim"} {
		if !strings.Contains(line, want) {
			t.Errorf("status line lacks %q: %s", want, line)
		}
	}
}

func TestProgressPeriodicReporter(t *testing.T) {
	prog := NewProgress(nil)
	prog.Add(10)
	prog.Done(4)
	var buf syncBuffer
	stop := prog.Start(&buf, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	out := buf.String()
	if !strings.Contains(out, "4/10 items (40.0%)") {
		t.Errorf("reporter output lacks completion: %q", out)
	}
	// stop() flushes a final line even if the ticker never fired.
	if strings.Count(out, "progress:") < 2 {
		t.Errorf("expected periodic plus final line, got %q", out)
	}
}

// syncBuffer makes bytes.Buffer safe against the reporter goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFmtETA pins the ETA renderer's edges: no measurable rate,
// sub-second, rounding across a minute boundary, and multi-hour.
func TestFmtETA(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		want    string
	}{
		{0, "-"},         // zero rate: no projection yet
		{-3, "-"},        // defensive: negative never renders
		{0.4, "0s"},      // sub-second rounds down to zero seconds
		{0.6, "1s"},      // ...and up past the half mark
		{59.6, "1m0s"},   // rounding crosses the minute boundary
		{7261, "2h1m1s"}, // multi-hour stays exact to the second
	} {
		if got := fmtETA(tc.seconds); got != tc.want {
			t.Errorf("fmtETA(%g) = %q, want %q", tc.seconds, got, tc.want)
		}
	}
}

// TestProgressUnknownTotal: a tracker whose Total is unknown (work
// done without any Add, or more done than announced) must project no
// ETA, and the ivm_progress_eta_seconds gauge must read exactly 0
// rather than a negative or runaway value.
func TestProgressUnknownTotal(t *testing.T) {
	prog := NewProgress(nil)
	prog.Add(0) // starts the clock; total stays 0
	prog.Done(5)
	time.Sleep(2 * time.Millisecond) // let elapsed become measurable
	s := prog.Snapshot()
	if s.Total != 0 || s.Done != 5 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Rate <= 0 {
		t.Errorf("rate %g, want > 0 (work did complete)", s.Rate)
	}
	if s.ETA != 0 {
		t.Errorf("ETA %g with unknown total, want 0", s.ETA)
	}
	var buf bytes.Buffer
	if err := WritePromText(&buf, prog.PromMetrics()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkExposition(t, out)
	if !strings.Contains(out, "ivm_progress_eta_seconds 0") {
		t.Errorf("eta gauge not pinned to 0:\n%s", out)
	}
	if !strings.Contains(prog.Line(), "ETA -") {
		t.Errorf("status line should render ETA as '-': %s", prog.Line())
	}
}

func TestProgressPromMetrics(t *testing.T) {
	prog := NewProgress(nil)
	prog.Add(100)
	prog.Done(25)
	var buf bytes.Buffer
	if err := WritePromText(&buf, prog.PromMetrics()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkExposition(t, out)
	for _, want := range []string{"ivm_progress_items 100", "ivm_progress_items_done_total 25", "# TYPE ivm_progress_eta_seconds gauge"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress exposition lacks %q:\n%s", want, out)
		}
	}
}
