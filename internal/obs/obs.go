// Package obs is the observability layer. Over the simulator it holds
// renderers of a trace.Recorder's event window: a Chrome trace_event
// track (chrome://tracing, Perfetto), a plain-text bank-occupancy strip
// chart and the per-cycle conflict phase histogram. Over the sweep
// engine and the service it holds the worker and request trace tracks,
// request spans, latency histograms, a live progress line, and a
// metrics registry that snapshots counters to JSON and serves them as
// Prometheus text, over expvar and with net/http/pprof.
//
// Progress, LatencyHist and the Registry are read from other
// goroutines while the instrumented work runs; the simulator renderers
// read a recorder after its run.
package obs
