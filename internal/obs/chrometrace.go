package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"ivm/internal/sweep"
	"ivm/internal/trace"
)

// Chrome trace_event export. A document holds any combination of three
// tracks, each one or two trace processes:
//
//   - SimTrack: a traced simulation window as "banks" (one thread per
//     bank, each grant an 'X' slice lasting the bank busy time) and
//     "ports" (one thread per port, each delayed clock a one-clock
//     slice named after its conflict kind). Clock periods map to
//     microseconds, the format's time unit, so one clock reads as 1us
//     in chrome://tracing or Perfetto.
//   - WorkerTrack: the sweep engine's Timeline as "sweep workers", one
//     thread per pool slot; phases are 'X' slices and the per-placement
//     verdicts (analytic-hit, cache-hit, cache-miss) thread-scoped 'i'
//     instants, so the memoisation pattern paints onto the lanes.
//   - RequestTrack: completed API requests as "requests", one thread
//     per request holding the request slice (named by endpoint, with
//     the request ID in args so a trace can be grepped for one ID) and
//     one child slice per recorded span.
//
// All three render through one lane renderer (lanes).

// Process IDs of the trace tracks.
const (
	chromePidBanks    = 1
	chromePidPorts    = 2
	chromePidWorkers  = 3
	chromePidRequests = 4
)

// chromeEvent is one trace_event entry. Field order is fixed and args
// is a sorted-key map, so the marshalled output is deterministic and
// suitable for golden-file tests.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Cat  string `json:"cat,omitempty"`
	// S is the scope of an instant ('i') event — "t" pins it to its
	// thread lane; empty for every other phase.
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// lanes is the one lane renderer behind every track: process metadata,
// thread metadata per lane, 'X' slices clamped to at least 1us so
// sub-microsecond work stays visible, and thread-scoped instants.
// Times are microseconds.
type lanes []chromeEvent

func (l *lanes) process(pid int, name string) {
	*l = append(*l, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
}

func (l *lanes) thread(pid, tid int, name string) {
	*l = append(*l, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

func (l *lanes) slice(pid, tid int, cat, name string, ts, dur int64, args map[string]any) {
	*l = append(*l, chromeEvent{Name: name, Ph: "X", Ts: ts, Dur: max(dur, 1), Pid: pid, Tid: tid, Cat: cat, Args: args})
}

func (l *lanes) instant(pid, tid int, cat, name string, ts int64, args map[string]any) {
	*l = append(*l, chromeEvent{Name: name, Ph: "i", Ts: ts, Pid: pid, Tid: tid, Cat: cat, S: "t", Args: args})
}

// Track is one part of a Chrome trace document; build it with
// SimTrack, WorkerTrack or RequestTrack.
type Track struct {
	render func(*lanes)
}

// WriteChromeTrace renders the tracks, in order, as one Chrome
// trace_event JSON document. Every track emits its process metadata
// even when it holds no events, so an empty track still yields a
// valid, labelled document.
func WriteChromeTrace(w io.Writer, tracks ...Track) error {
	var l lanes
	for _, t := range tracks {
		t.render(&l)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeDoc{TraceEvents: l, DisplayTimeUnit: "ms"})
}

// SimTrack is the banks/ports track of a recorder's event window: a
// thread per bank, each grant a slice lasting the bank busy time, and a
// thread per port seen, each delayed clock a one-clock slice. An empty
// window still gets the process and bank thread metadata.
func SimTrack(r *trace.Recorder) Track {
	return Track{func(l *lanes) {
		events := r.Events()
		l.process(chromePidBanks, "banks")
		l.process(chromePidPorts, "ports")
		for b := 0; b < r.Banks(); b++ {
			l.thread(chromePidBanks, b, fmt.Sprintf("bank %d", b))
		}
		for _, id := range portsOf(events) {
			name := fmt.Sprintf("port %d", id)
			if label := r.Label(id); label != "" {
				name = fmt.Sprintf("port %d (stream %s)", id, label)
			}
			l.thread(chromePidPorts, int(id), name)
		}
		for _, e := range events {
			if e.Granted() {
				name := r.Label(e.Port)
				if name == "" {
					name = fmt.Sprint(e.Port)
				}
				l.slice(chromePidBanks, int(e.Bank), "grant", "stream "+name, e.Clock, int64(r.BankBusy()),
					map[string]any{"port": e.Port, "cpu": e.CPU})
				continue
			}
			l.slice(chromePidPorts, int(e.Port), "delay", e.Kind.String()+" conflict", e.Clock, 1,
				map[string]any{"bank": e.Bank, "blocker": e.Blocker})
		}
	}}
}

// WorkerTrack is the sweep worker track of an engine Timeline
// (Timeline.Events or Snapshot.TimelineEvents). Timestamps are
// nanoseconds mapped to the format's microseconds.
func WorkerTrack(events []sweep.TimelineEvent) Track {
	return Track{func(l *lanes) {
		l.process(chromePidWorkers, "sweep workers")
		workers := map[int]bool{}
		for _, e := range events {
			workers[e.Worker] = true
		}
		ids := make([]int, 0, len(workers))
		for id := range workers {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			l.thread(chromePidWorkers, id, fmt.Sprintf("worker %d", id))
		}
		for _, e := range events {
			args := map[string]any{}
			if e.Item >= 0 {
				args["item"] = e.Item
			}
			if e.Family != "" {
				args["family"] = e.Family
			}
			if len(args) == 0 {
				args = nil
			}
			if e.Kind.Instant() {
				l.instant(chromePidWorkers, e.Worker, "sweep", e.Kind.String(), e.StartNS/1000, args)
			} else {
				l.slice(chromePidWorkers, e.Worker, "sweep", e.Kind.String(), e.StartNS/1000, e.DurNS/1000, args)
			}
		}
	}}
}

// RequestTrace is one completed, exportable request: identity, HTTP
// outcome, when it ran (nanoseconds since the serving process's
// epoch), and its recorded spans (relative to the request's start).
type RequestTrace struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Status   int    `json:"status"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	Spans    []Span `json:"spans,omitempty"`
}

// RequestTrack is the track of completed requests: one thread per
// request (named by its ID), holding the request slice and its span
// children.
func RequestTrack(reqs []RequestTrace) Track {
	return Track{func(l *lanes) {
		l.process(chromePidRequests, "requests")
		for tid, r := range reqs {
			l.thread(chromePidRequests, tid, "req "+r.ID)
			l.slice(chromePidRequests, tid, "request", r.Endpoint, r.StartNS/1000, r.DurNS/1000,
				map[string]any{"id": r.ID, "status": fmt.Sprintf("%d", r.Status)})
			for _, sp := range r.Spans {
				l.slice(chromePidRequests, tid, "span", sp.Name, (r.StartNS+sp.StartNS)/1000, sp.DurNS/1000,
					map[string]any{"id": r.ID})
			}
		}
	}}
}

// portsOf lists the distinct ports appearing in the events, by ID.
func portsOf(events []trace.Event) []int32 {
	seen := make(map[int32]bool)
	for _, e := range events {
		seen[e.Port] = true
	}
	out := make([]int32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
