// Package trace is the simulator's one recorder. A Recorder is the
// memsys.Listener every observer attaches: it keeps the exact counts of
// a run (grants, delays per conflict kind, per-bank grants and delays,
// the grants-per-clock histogram, per-port delay-run lengths) and a
// bounded window of the most recent events, and can stream every event
// as a CSV row. Everything that reads a run is a renderer over those
// counts and that window:
//
//   - the paper-style bank × clock diagram of Figures 2–9 (Render,
//     RenderWithSections, RenderWithPriority; see Legend);
//   - the per-bank statistics report and its JSON Snapshot;
//   - the CSV event timeline (WriteCSV, and the lossless StreamCSV);
//   - in package obs, the strip chart, the Chrome trace track and the
//     per-cycle phase histogram.
//
// The window size is the recorder's one setting. Zero keeps counts
// only, which is what a sweep worker needs; a diagram of clocks
// [0, c) needs ports·c events, since each port emits at most one event
// per clock.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"

	"ivm/internal/memsys"
)

// SearchWindow is the window that holds every event of a steady-state
// search on paper-sized systems. On longer searches it keeps the most
// recent events, which still cover the cyclic regime.
const SearchWindow = 1 << 16

// flushEvery is how many streamed CSV rows may wait in the buffer
// before they are forced to the writer, so a consumer tailing the file
// sees progress in bounded steps.
const flushEvery = 1 << 12

// Event is a value copy of one per-clock simulator outcome. Unlike
// memsys.Event it holds no *Port pointers, so a retained window cannot
// keep a simulation's object graph alive; a port's label is kept once,
// by the recorder (Label). The fields are 32-bit so a window holding a
// long run stays small.
type Event struct {
	Clock   int64
	Port    int32
	CPU     int32
	Bank    int32
	Blocker int32 // blocking port ID; -1 for grants
	Kind    memsys.ConflictKind
}

// Granted reports whether the event is a grant (Kind == NoConflict).
func (e Event) Granted() bool { return e.Kind == memsys.NoConflict }

// Recorder observes a simulation: exact counts of everything, a window
// of the most recent events, and an optional CSV stream of all of them.
type Recorder struct {
	banks, bankBusy int

	kinds      [4]int64 // events per memsys.ConflictKind; kinds[NoConflict] are grants
	bankGrants []int64
	bankDelays []int64
	histogram  []int64 // finished clocks with k grants, index k

	ports []portState // by port ID

	haveClock             bool
	firstClock, lastClock int64
	curClock              int64
	curGrants             int
	// mergedClocks adds the observation spans of recorders folded in
	// by Merge; they are treated as disjoint in time.
	mergedClocks int64

	window  int
	ring    []Event // grows up to window, then wraps
	next    int     // oldest slot once the ring is full
	dropped int64

	csv     *bufio.Writer
	pending int // rows since the last forced flush
	csvErr  error
}

// portState is what the recorder keeps per port: its label and its
// delay streaks — the open run of consecutive delayed clocks and the
// histogram of finished runs. Eq. 29's derivation predicts a barrier's
// run length, (d2-d1)/f clock periods.
type portState struct {
	label string
	run   int64
	runs  map[int64]int64
}

// Attach builds a recorder for the system's geometry that keeps the
// most recent window events (0 keeps counts only), and installs it as
// the system's listener. It panics on a negative window.
func Attach(sys *memsys.System, window int) *Recorder {
	if window < 0 {
		panic(fmt.Sprintf("trace: negative window %d", window))
	}
	cfg := sys.Config()
	r := &Recorder{
		banks:      cfg.Banks,
		bankBusy:   cfg.BankBusy,
		bankGrants: make([]int64, cfg.Banks),
		bankDelays: make([]int64, cfg.Banks),
		histogram:  make([]int64, 1),
		window:     window,
	}
	sys.SetListener(r)
	return r
}

// StreamCSV writes the CSV header to w and, from then on, every
// observed event as a row in WriteCSV's format, so a run of any length
// exports losslessly. Rows are buffered and flushed every few thousand;
// Close flushes the tail. The first write error stops the stream and
// is kept for Close.
func (r *Recorder) StreamCSV(w io.Writer) {
	r.csv = bufio.NewWriter(w)
	_, r.csvErr = fmt.Fprintln(r.csv, csvHeader)
}

// Close flushes the CSV stream and returns its first write error. The
// writer itself is the caller's to close.
func (r *Recorder) Close() error {
	if r.csv == nil || r.csvErr != nil {
		return r.csvErr
	}
	r.csvErr = r.csv.Flush()
	return r.csvErr
}

// Observe implements memsys.Listener.
func (r *Recorder) Observe(e memsys.Event) {
	if !r.haveClock {
		r.firstClock, r.curClock, r.haveClock = e.Clock, e.Clock, true
	}
	if e.Clock != r.curClock {
		r.flushClock(e.Clock)
	}
	r.lastClock = max(r.lastClock, e.Clock)
	r.kinds[e.Kind]++
	p := r.port(e.Port.ID)
	if e.Kind == memsys.NoConflict {
		r.bankGrants[e.Bank]++
		r.curGrants++
		p.endRun()
	} else {
		r.bankDelays[e.Bank]++
		p.run++
	}

	if r.window == 0 && r.csv == nil {
		return
	}
	p.label = e.Port.Label
	ev := Event{Clock: e.Clock, Port: int32(e.Port.ID), CPU: int32(e.Port.CPU), Bank: int32(e.Bank), Kind: e.Kind, Blocker: -1}
	if e.Blocker != nil {
		ev.Blocker = int32(e.Blocker.ID)
	}
	if r.window > 0 {
		r.keep(ev)
	}
	if r.csv != nil && r.csvErr == nil {
		if r.csvErr = writeCSVRow(r.csv, ev, e.Port.Label); r.csvErr == nil {
			if r.pending++; r.pending >= flushEvery {
				r.csvErr = r.csv.Flush()
				r.pending = 0
			}
		}
	}
}

// keep puts ev in the window: appended while it grows, over the oldest
// event once it is full.
func (r *Recorder) keep(ev Event) {
	if len(r.ring) < r.window {
		if len(r.ring) == cap(r.ring) {
			// Double the storage, but never past the window.
			r.ring = slices.Grow(r.ring, min(max(len(r.ring), 256), r.window-len(r.ring)))
		}
		r.ring = append(r.ring, ev)
		return
	}
	r.ring[r.next] = ev
	r.next = (r.next + 1) % r.window
	r.dropped++
}

// port returns the state of port id, growing the table to hold it.
func (r *Recorder) port(id int) *portState {
	for len(r.ports) <= id {
		r.ports = append(r.ports, portState{})
	}
	return &r.ports[id]
}

// endRun closes the port's open delay streak into its histogram.
func (p *portState) endRun() {
	if p.run == 0 {
		return
	}
	if p.runs == nil {
		p.runs = make(map[int64]int64)
	}
	p.runs[p.run]++
	p.run = 0
}

// flushClock records the finished clock's grant count and counts the
// silent (eventless) clocks in between as zero-grant clocks.
func (r *Recorder) flushClock(next int64) {
	r.bump(r.curGrants, 1)
	r.bump(0, next-r.curClock-1)
	r.curClock = next
	r.curGrants = 0
}

func (r *Recorder) bump(k int, n int64) {
	for len(r.histogram) <= k {
		r.histogram = append(r.histogram, 0)
	}
	r.histogram[k] += n
}

// Events returns the window in chronological order: every event of the
// run, or its most recent window events once the window has wrapped.
// The slice is the recorder's own storage, valid until the next event.
func (r *Recorder) Events() []Event {
	if r.next != 0 {
		// Rotate the wrapped ring in place so the oldest event leads.
		slices.Reverse(r.ring[:r.next])
		slices.Reverse(r.ring[r.next:])
		slices.Reverse(r.ring)
		r.next = 0
	}
	return r.ring
}

// Label returns the label of a port seen in the window or the stream;
// a port keeps its label for the recorder's life.
func (r *Recorder) Label(port int32) string {
	if int(port) < len(r.ports) {
		return r.ports[port].label
	}
	return ""
}

// Banks returns the bank count of the observed system.
func (r *Recorder) Banks() int { return r.banks }

// BankBusy returns the bank busy time n_c of the observed system.
func (r *Recorder) BankBusy() int { return r.bankBusy }

// DelayRunLengths returns a port's finished delay-run histogram: for
// each streak length, how many runs of exactly that many consecutive
// delayed clocks occurred. A barrier-situation produces runs of one
// characteristic length, (d2-d1)/f per Eq. 29's derivation.
func (r *Recorder) DelayRunLengths(port int) map[int64]int64 {
	out := make(map[int64]int64)
	if port < len(r.ports) {
		maps.Copy(out, r.ports[port].runs)
	}
	return out
}

// Merge folds another recorder's counts into r, so the per-worker
// recorders of a parallel sweep combine into one view. The two runs are
// treated as disjoint in time: observed clocks add, and the rates
// become averages over the combined span. Only finished delay runs are
// folded, and o's window is not. Merge panics if the recorders observed
// systems of different geometry.
func (r *Recorder) Merge(o *Recorder) {
	if o == nil || o == r {
		return
	}
	if o.banks != r.banks || o.bankBusy != r.bankBusy {
		panic(fmt.Sprintf("trace: cannot merge a recorder for %d banks (busy %d) into %d banks (busy %d)",
			o.banks, o.bankBusy, r.banks, r.bankBusy))
	}
	for k, v := range o.kinds {
		r.kinds[k] += v
	}
	for b := range o.bankGrants {
		r.bankGrants[b] += o.bankGrants[b]
		r.bankDelays[b] += o.bankDelays[b]
	}
	for id, op := range o.ports {
		p := r.port(id)
		for n, v := range op.runs {
			if p.runs == nil {
				p.runs = make(map[int64]int64)
			}
			p.runs[n] += v
		}
	}
	for k, v := range o.histogram {
		r.bump(k, v)
	}
	r.mergedClocks += o.observedClocks()
}

// observedClocks is the span of clocks the events covered (silent gaps
// included), plus the spans of merged recorders.
func (r *Recorder) observedClocks() int64 {
	var own int64
	if r.haveClock {
		own = r.lastClock - r.firstClock + 1
	}
	return own + r.mergedClocks
}

func (r *Recorder) delays() int64 {
	return r.kinds[memsys.BankConflict] + r.kinds[memsys.SimultaneousConflict] + r.kinds[memsys.SectionConflict]
}

// rate is grants per observed clock, an estimate of b_eff that
// converges to the cyclic value on long runs.
func rate(grants, clocks int64) float64 {
	if clocks <= 0 {
		return 0
	}
	return float64(grants) / float64(clocks)
}

// Snapshot is the JSON view of a recorder's counts, written by the
// CLIs' -metrics-out. It round-trips through JSON unchanged.
type Snapshot struct {
	Banks                 int       `json:"banks"`
	BankBusy              int       `json:"bank_busy"`
	ObservedClocks        int64     `json:"observed_clocks"`
	Grants                int64     `json:"grants"`
	Delays                int64     `json:"delays"`
	Bandwidth             float64   `json:"bandwidth"`
	BankConflicts         int64     `json:"bank_conflicts"`
	SimultaneousConflicts int64     `json:"simultaneous_conflicts"`
	SectionConflicts      int64     `json:"section_conflicts"`
	BankGrants            []int64   `json:"bank_grants"`
	BankDelays            []int64   `json:"bank_delays"`
	Utilization           []float64 `json:"utilization"`
	// GrantHistogram counts the finished clocks with exactly k grants
	// at index k; the clock still open when the run stopped is not in it.
	GrantHistogram []int64 `json:"grant_histogram"`
}

// Snapshot exports the counts. Utilisation is the fraction of observed
// clocks a bank spent busy (n_c clocks per grant), clamped to 1 since
// the last grants' service may run past the observed span.
func (r *Recorder) Snapshot() Snapshot {
	clocks := r.observedClocks()
	s := Snapshot{
		Banks:                 r.banks,
		BankBusy:              r.bankBusy,
		ObservedClocks:        clocks,
		Grants:                r.kinds[memsys.NoConflict],
		Delays:                r.delays(),
		Bandwidth:             rate(r.kinds[memsys.NoConflict], clocks),
		BankConflicts:         r.kinds[memsys.BankConflict],
		SimultaneousConflicts: r.kinds[memsys.SimultaneousConflict],
		SectionConflicts:      r.kinds[memsys.SectionConflict],
		BankGrants:            append([]int64(nil), r.bankGrants...),
		BankDelays:            append([]int64(nil), r.bankDelays...),
		Utilization:           make([]float64, r.banks),
		GrantHistogram:        append([]int64(nil), r.histogram...),
	}
	for b, g := range r.bankGrants {
		s.Utilization[b] = min(rate(g*int64(r.bankBusy), clocks), 1)
	}
	return s
}

// WindowStats is the JSON summary of a recorder's own run: its exact
// totals plus the state of the event window.
type WindowStats struct {
	Events                int     `json:"events"`   // events in the window
	Recorded              int64   `json:"recorded"` // events ever put in the window
	Dropped               int64   `json:"dropped"`  // overwritten, oldest first
	Grants                int64   `json:"grants"`
	Delays                int64   `json:"delays"`
	BankConflicts         int64   `json:"bank_conflicts"`
	SimultaneousConflicts int64   `json:"simultaneous_conflicts"`
	SectionConflicts      int64   `json:"section_conflicts"`
	FirstClock            int64   `json:"first_clock"`
	LastClock             int64   `json:"last_clock"`
	Bandwidth             float64 `json:"bandwidth"` // grants per observed clock
}

// WindowStats summarises the recorder's own run and window.
func (r *Recorder) WindowStats() WindowStats {
	s := WindowStats{
		Events:                len(r.ring),
		Recorded:              int64(len(r.ring)) + r.dropped,
		Dropped:               r.dropped,
		Grants:                r.kinds[memsys.NoConflict],
		Delays:                r.delays(),
		BankConflicts:         r.kinds[memsys.BankConflict],
		SimultaneousConflicts: r.kinds[memsys.SimultaneousConflict],
		SectionConflicts:      r.kinds[memsys.SectionConflict],
	}
	if r.haveClock {
		s.FirstClock, s.LastClock = r.firstClock, r.lastClock
		s.Bandwidth = rate(s.Grants, s.LastClock-s.FirstClock+1)
	}
	return s
}
