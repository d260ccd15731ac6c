package main

// The traced run (--trace 1): the benchmark records its own spans
// around each public call, reads the server's spans from
// /debug/requests.trace, and prints the per-layer metrics. Layers a
// workload bypasses are measured by short probes on the same seed's
// inputs, so every traced run prints the whole ledger.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ivm/internal/machine"
	"ivm/internal/rat"
	"ivm/internal/sweep"
	"ivm/internal/xmp"
)

// spanSink is the benchmark's sweep.SpanSink: it keeps every span of a
// replay in memory, safe for the engine's concurrent workers.
type spanSink struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	start, end int64 // ns since the sink's epoch
}

func newSpanSink() *spanSink { return &spanSink{epoch: time.Now()} }

func (s *spanSink) Start() int64 { return time.Since(s.epoch).Nanoseconds() }

func (s *spanSink) Span(name string, start int64) {
	end := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	s.spans = append(s.spans, span{name, start, end})
	s.mu.Unlock()
}

// meanNS is the mean duration of the spans called name.
func (s *spanSink) meanNS(name string) (float64, int) {
	var sum float64
	n := 0
	for _, sp := range s.spans {
		if sp.name == name {
			sum += float64(sp.end - sp.start)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// union is the length of the union of the intervals.
func union(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// runTraced is the --trace 1 run of any workload.
func runTraced(cfg config, in *inputs) (*result, error) {
	res := newResult()
	if err := ledger(cfg, in, res); err != nil {
		return nil, err
	}
	var err error
	switch cfg.workload {
	case "census-cold":
		err = tracedCensus(cfg, in, res, cfg.duration)
		if err == nil {
			err = servedProbe(cfg, in, res)
		}
	case "served-warm", "served-mixed":
		err = tracedServed(cfg, in, res)
	case "triad-xmp":
		err = tracedTriad(cfg, res)
		if err == nil {
			err = tracedCensus(cfg, in, res, 0)
		}
		if err == nil {
			err = servedProbe(cfg, in, res)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// --- census ------------------------------------------------------------

// tracedCensus replays the census placements through
// Engine.ResolveBatchCtx on fresh default engines, alternating untraced
// and traced (own SpanSink) replays for d (at least one pair), and
// reports the sweep and core spans, the path split, and the overhead.
// Each replay's answers are folded per spec and compared with the
// reference census rows.
func tracedCensus(cfg config, in *inputs, res *result, d time.Duration) error {
	placements := censusPlacements(in.census)
	owner := make([]int, 0, len(placements))
	for i, spec := range in.census {
		n := 1
		for _, st := range spec.Streams {
			if st.Sweep {
				n *= spec.M
			}
		}
		for j := 0; j < n; j++ {
			owner = append(owner, i)
		}
	}
	replay := func(sink *spanSink) (time.Duration, []sweep.Resolution, *sweep.Engine, error) {
		ctx := context.Background()
		if sink != nil {
			ctx = sweep.WithSpanSink(ctx, sink)
		}
		e := defaultEngine(cfg.nproc, sweep.Options{})
		t0 := time.Now()
		out, err := e.ResolveBatchCtx(ctx, placements)
		return time.Since(t0), out, e, err
	}
	var plain, traced, last time.Duration
	var sink *spanSink
	var eng *sweep.Engine
	var answers []sweep.Resolution
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		dp, _, _, err := replay(nil)
		if err != nil {
			return err
		}
		s := newSpanSink()
		dt, out, e, err := replay(s)
		if err != nil {
			return err
		}
		plain += dp
		traced += dt
		sink, eng, answers, last = s, e, out, dt
	}
	// Fold the traced replay's answers into per-spec extremes and compare
	// them with the reference rows' SimMin/SimMax.
	ref := in.censusRef
	if ref == nil {
		ref = censusReference(in.census)
		in.censusRef = ref
	}
	lo := make([]rat.Rational, len(in.census))
	hi := make([]rat.Rational, len(in.census))
	seen := make([]bool, len(in.census))
	for i, a := range answers {
		k := owner[i]
		if !seen[k] || a.BW.Cmp(lo[k]) < 0 {
			lo[k] = a.BW
		}
		if !seen[k] || a.BW.Cmp(hi[k]) > 0 {
			hi[k] = a.BW
		}
		seen[k] = true
	}
	for k := range in.census {
		res.attempted++
		got := lo[k].String() + " " + hi[k].String() + " "
		if !strings.HasPrefix(ref[k], got) {
			res.failed++
			res.infof("census replay spec %d: extremes %s, reference row %s", k, got, ref[k])
		}
	}
	paths := map[string]int64{}
	for _, a := range answers {
		paths[a.Path.String()]++
	}
	setPathShares(res, paths, "census replay")
	m := eng.Metrics()
	res.set("sweep.cache_hit_ratio", ratio(m.CacheHits, m.CacheHits+m.CacheMisses), "ratio", 0)
	setSpanMeans(res, sink)
	if cfg.workload == "census-cold" {
		res.set("trace_overhead_share", traced.Seconds()/plain.Seconds()-1, "ratio", 0)
		e := defaultEngine(cfg.nproc, sweep.Options{})
		e.SpecGrid(in.census)
		res.set("sweep.worker_busy_ratio", busyRatio(e), "ratio", 0)
		covered := make([][2]int64, len(sink.spans))
		for i, sp := range sink.spans {
			covered[i] = [2]int64{sp.start, sp.end}
		}
		res.infof("census replay: %d placements, traced %.4fs vs untraced %.4fs in total; in the last traced replay engine spans cover %.4fs of %.4fs (the rest is compile, pool and bookkeeping)",
			len(placements), traced.Seconds(), plain.Seconds(), float64(union(covered))/1e9, last.Seconds())
	} else {
		res.set("sweep.worker_busy_ratio", busyRatio(eng), "ratio", 0)
		res.infof("sweep.* and core.gate spans come from a census replay probe (this workload bypasses the sweep engine)")
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setPathShares sets the three sweep.path_share.* metrics.
func setPathShares(res *result, paths map[string]int64, from string) {
	var total int64
	for _, n := range paths {
		total += n
	}
	res.set("sweep.path_share.analytic", ratio(paths["analytic"], total), "ratio", 0)
	res.set("sweep.path_share.cache", ratio(paths["cache"], total), "ratio", 0)
	res.set("sweep.path_share.sim", ratio(paths["sim-packed"]+paths["sim-scalar"], total), "ratio", 0)
	res.infof("path split (%s, %d answers): %s", from, total, pathSplit(paths))
}

// setSpanMeans sets the span-derived sweep and core timings.
func setSpanMeans(res *result, sink *spanSink) {
	canon, nc := sink.meanNS(sweep.SpanCanon)
	probe, np := sink.meanNS(sweep.SpanCacheProbe)
	res.set("sweep.canonicalise_ns", canon, "ns", nc)
	res.set("sweep.cache_probe_ns", probe, "ns", np)
}

// --- triad -------------------------------------------------------------

// tracedTriad alternates untraced and traced (one span per
// TriadExperiment) passes over the 32 points for the run's duration
// and reports the tracing overhead.
func tracedTriad(cfg config, res *result) error {
	pts := triadOrder(cfg.seed)
	var plain, traced time.Duration
	var spans []span
	epoch := time.Now()
	deadline := time.Now().Add(cfg.duration)
	for first := true; first || time.Now().Before(deadline); first = false {
		t0 := time.Now()
		for _, p := range pts {
			r := xmp.TriadExperiment(p.inc, triadN, p.busy, machine.DefaultConfig())
			res.attempted++
			if err := checkTriad(r, p.busy, &fig10Busy); err != nil {
				res.failed++
				res.infof("wrong answer: %v", err)
			}
		}
		plain += time.Since(t0)
		t0 = time.Now()
		for _, p := range pts {
			s := time.Since(epoch).Nanoseconds()
			r := xmp.TriadExperiment(p.inc, triadN, p.busy, machine.DefaultConfig())
			spans = append(spans, span{"triad", s, time.Since(epoch).Nanoseconds()})
			res.attempted++
			if err := checkTriad(r, p.busy, &fig10Busy); err != nil {
				res.failed++
				res.infof("wrong answer: %v", err)
			}
		}
		traced += time.Since(t0)
	}
	res.set("trace_overhead_share", traced.Seconds()/plain.Seconds()-1, "ratio", 0)
	res.infof("triad: %d traced experiments, traced %.4fs vs untraced %.4fs", len(spans), traced.Seconds(), plain.Seconds())
	return nil
}

// --- served ------------------------------------------------------------

// traceWindow is the number of requests between two reads of
// /debug/requests.trace; the server keeps the last 256 requests, so a
// window must stay below that for no request to be lost.
const traceWindow = 200

// serverReq is one request as the server's trace export shows it.
type serverReq struct {
	endpoint string
	ts, dur  int64 // µs
	children []serverSpan
}

type serverSpan struct {
	name    string
	ts, dur int64 // µs
}

// fetchTrace reads /debug/requests.trace and groups it by request ID.
func fetchTrace(c *http.Client, base string) (map[string]*serverReq, error) {
	resp, err := c.Get(base + "/debug/requests.trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decode /debug/requests.trace: %w", err)
	}
	out := map[string]*serverReq{}
	get := func(id string) *serverReq {
		r := out[id]
		if r == nil {
			r = &serverReq{}
			out[id] = r
		}
		return r
	}
	for _, ev := range doc.TraceEvents {
		id, _ := ev.Args["id"].(string)
		switch ev.Cat {
		case "request":
			r := get(id)
			r.endpoint, r.ts, r.dur = ev.Name, ev.Ts, ev.Dur
		case "span":
			r := get(id)
			r.children = append(r.children, serverSpan{ev.Name, ev.Ts, ev.Dur})
		}
	}
	return out, nil
}

// layerOf maps a server span to the module it times.
var layerOf = map[string]string{
	"decode":             "serve",
	"encode":             "serve",
	sweep.SpanGate:       "core",
	sweep.SpanCanon:      "sweep",
	sweep.SpanCacheProbe: "sweep",
	sweep.SpanSimulate:   "memsys",
}

// anatomy accumulates the per-layer self times of traced requests.
type anatomy struct {
	kinds      map[reqKind]*kindAnatomy
	missing    int     // traced requests absent from the server's trace
	worstErrUS float64 // largest reconciliation error seen
	worstTolUS float64 // the tolerance of that request
	violations int     // requests outside the tolerance
	spansShort int     // batches with fewer engine spans than specs
}

type kindAnatomy struct {
	n        int
	clientUS float64
	layers   map[string]float64 // µs summed over requests
	selfUS   float64            // server request span minus its children
	decodeUS float64
	encodeUS float64
}

func newAnatomy() *anatomy { return &anatomy{kinds: map[reqKind]*kindAnatomy{}} }

// add reconciles one request. Its children are clipped to the server
// span; an instant covered by k child spans (parallel batch workers)
// credits 1/k of itself to each, so the layer self times partition the
// server span. The check is that transport (client minus server time)
// plus every layer's self time adds up to the client latency within the
// trace export's rounding: 1 µs per span edge plus 1 µs.
func (a *anatomy) add(kind reqKind, clientNS int64, r *serverReq, items int) {
	ka := a.kinds[kind]
	if ka == nil {
		ka = &kindAnatomy{layers: map[string]float64{}}
		a.kinds[kind] = ka
	}
	clientUS := float64(clientNS) / 1e3
	lo, hi := r.ts, r.ts+r.dur
	var clipped int64
	type edge struct {
		t     int64
		layer string
		open  bool
	}
	var edges []edge
	var iv [][2]int64
	engineSpans := 0
	for _, c := range r.children {
		s, e := c.ts, c.ts+c.dur
		if s < lo {
			clipped += lo - s
			s = lo
		}
		if e > hi {
			clipped += e - hi
			e = hi
		}
		if e <= s {
			continue
		}
		if c.name != "decode" && c.name != "encode" {
			engineSpans++
		}
		switch c.name {
		case "decode":
			ka.decodeUS += float64(e - s)
		case "encode":
			ka.encodeUS += float64(e - s)
		}
		layer := layerOf[c.name]
		if layer == "" {
			layer = "other:" + c.name
		}
		edges = append(edges, edge{s, layer, true}, edge{e, layer, false})
		iv = append(iv, [2]int64{s, e})
	}
	if kind == kindBatch && engineSpans < items {
		a.spansShort++
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return !edges[i].open && edges[j].open
	})
	active := map[string]int{}
	depth := 0
	prev := lo
	var sum float64
	credit := func(t int64) {
		if depth > 0 && t > prev {
			for l, n := range active {
				share := float64(t-prev) * float64(n) / float64(depth)
				ka.layers[l] += share
				sum += share
			}
		}
		prev = t
	}
	for _, e := range edges {
		credit(e.t)
		if e.open {
			active[e.layer]++
			depth++
		} else {
			active[e.layer]--
			if active[e.layer] == 0 {
				delete(active, e.layer)
			}
			depth--
		}
	}
	self := float64(r.dur - union(iv))
	ka.layers["serve"] += self
	ka.selfUS += self
	transport := clientUS - float64(r.dur)
	ka.layers["transport"] += transport
	ka.clientUS += clientUS
	ka.n++
	total := transport + self + sum
	errUS := math.Abs(total-clientUS) + float64(clipped)
	if transport < -1 {
		errUS += -transport
	}
	tol := 1 + 2*float64(len(r.children))
	if errUS > tol {
		a.violations++
	}
	if errUS >= a.worstErrUS {
		a.worstErrUS, a.worstTolUS = errUS, tol
	}
}

// tracedPass sends requests in windows of traceWindow (nproc clients,
// each its share per window), reads the server's trace after every
// window and reconciles each request. next returns a client's next
// request, or false when its list is done. It stops at the deadline or
// when every client is done (or after maxWindows when that is > 0).
func tracedPass(t *tally, u *universe, l *live, c *http.Client, next func(client int) (request, bool), nproc int, deadline time.Time, maxWindows int, an *anatomy, idPrefix string) error {
	per := traceWindow / nproc
	seq := make([]int, nproc)
	for w := 0; maxWindows == 0 || w < maxWindows; w++ {
		if w > 0 && !time.Now().Before(deadline) {
			break
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		sent := map[string]reqKindItems{}
		done := 0
		for i := 0; i < nproc; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					req, ok := next(i)
					if !ok {
						mu.Lock()
						done++
						mu.Unlock()
						return
					}
					id := fmt.Sprintf("%s-w%d-c%d-%d", idPrefix, w, i, seq[i])
					seq[i]++
					t.runOne(c, u, l.base, req, id)
					mu.Lock()
					sent[id] = reqKindItems{req.kind, len(req.want)}
					mu.Unlock()
				}
			}(i)
		}
		wg.Wait()
		reqs, err := fetchTrace(c, l.base)
		if err != nil {
			return err
		}
		for id, ki := range sent {
			r := reqs[id]
			clientNS, ok := t.traced[id]
			if r == nil || r.dur == 0 || !ok {
				an.missing++
				continue
			}
			an.add(ki.kind, clientNS, r, ki.items)
		}
		if done == nproc {
			break
		}
	}
	return nil
}

type reqKindItems struct {
	kind  reqKind
	items int
}

// setServeAnatomy sets the serve.* metrics from the singles' anatomy
// and prints the per-kind layer breakdown.
func setServeAnatomy(res *result, an *anatomy) error {
	ks := an.kinds[kindSingle]
	if ks == nil || ks.n == 0 {
		return fmt.Errorf("traced pass recorded no single requests")
	}
	n := float64(ks.n)
	res.set("serve.self_us", ks.selfUS/n, "us", ks.n)
	res.set("serve.decode_us", ks.decodeUS/n, "us", ks.n)
	res.set("serve.encode_us", ks.encodeUS/n, "us", ks.n)
	for _, k := range []reqKind{kindSingle, kindBatch, kindSweep, kindInvalid} {
		ka := an.kinds[k]
		if ka == nil {
			continue
		}
		var names []string
		for l := range ka.layers {
			names = append(names, l)
		}
		sort.Strings(names)
		line := fmt.Sprintf("anatomy %s (n=%d, mean client %.1f us):", kindNames[k], ka.n, ka.clientUS/float64(ka.n))
		for _, l := range names {
			line += fmt.Sprintf(" %s=%.1f", l, ka.layers[l]/float64(ka.n))
		}
		res.infof("%s", line)
	}
	res.infof("reconciliation: transport + layer self times = client latency within 1 us + 2 us per span; %d violations, worst error %.1f us (tolerance %.1f us); %d traced requests missing from the trace ring; %d batches with fewer engine spans than specs",
		an.violations, an.worstErrUS, an.worstTolUS, an.missing, an.spansShort)
	if an.violations > 0 {
		res.failed += int64(an.violations)
	}
	return nil
}

// tracedServed is the traced run of served-warm / served-mixed: an
// untraced and a traced pass of the same seed's requests, each for half
// the run, then an in-process sweep replay of the same specs.
func tracedServed(cfg config, in *inputs, res *result) error {
	u := in.universe
	mixed := cfg.workload == "served-mixed"
	half := cfg.duration / 2
	plain, traced := newTally(), newTally()
	an := newAnatomy()
	var eng *sweep.Engine

	if !mixed {
		l, _, err := startLive(in.logDir, cfg.nproc)
		if err != nil {
			return err
		}
		gens := make([]*requestGen, cfg.nproc)
		for i := range gens {
			gens[i] = newRequestGen(u, cfg.seed, i, false)
		}
		tr := newTransport(cfg.nproc)
		c := &http.Client{Transport: tr}
		closedLoop(plain, u, l.base, gens, c, time.Now().Add(half))
		for i := range gens {
			gens[i] = newRequestGen(u, cfg.seed, i, false)
		}
		err = tracedPass(traced, u, l, c, func(i int) (request, bool) { return gens[i].next(), true }, cfg.nproc, time.Now().Add(half), 0, an, "warm")
		tr.CloseIdleConnections()
		eng = l.srv.Engine()
		if serr := l.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	} else {
		for pass, t := range []*tally{plain, traced} {
			gens := make([]*requestGen, cfg.nproc)
			for i := range gens {
				gens[i] = newRequestGen(u, cfg.seed, i, true)
			}
			end := time.Now().Add(half)
			for rep := 0; rep == 0 || time.Now().Before(end); rep++ {
				dir := filepath.Join(cfg.workdir, fmt.Sprintf("traced-%d-%d", pass, rep))
				if err := copyLog(in.logDir, dir); err != nil {
					return err
				}
				l, _, err := startLive(dir, cfg.nproc)
				if err != nil {
					return err
				}
				tr := newTransport(cfg.nproc)
				c := &http.Client{Transport: tr}
				if pass == 0 {
					runRep(t, u, l.base, gens, c)
				} else {
					sent := make([]int, cfg.nproc)
					err = tracedPass(t, u, l, c, func(i int) (request, bool) {
						if sent[i] == mixedRequests {
							return request{}, false
						}
						sent[i]++
						return gens[i].next(), true
					}, cfg.nproc, end.Add(time.Hour), 0, an, fmt.Sprintf("mixed%d", rep))
				}
				tr.CloseIdleConnections()
				eng = l.srv.Engine()
				if serr := l.stop(); err == nil {
					err = serr
				}
				if err != nil {
					return err
				}
			}
		}
	}
	for _, t := range []*tally{plain, traced} {
		res.attempted += t.attempted
		res.failed += t.failed
		for _, f := range t.failures {
			res.infof("failure: %s", f)
		}
	}
	if err := setServeAnatomy(res, an); err != nil {
		return err
	}
	setPathShares(res, traced.paths, "traced pass responses")
	m := eng.Metrics()
	res.set("sweep.cache_hit_ratio", ratio(m.CacheHits, m.CacheHits+m.CacheMisses), "ratio", 0)
	res.set("sweep.worker_busy_ratio", busyRatio(eng), "ratio", 0)
	mean := func(s *samples) float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var sum float64
		for _, v := range s.ns {
			sum += v
		}
		return sum / float64(max(len(s.ns), 1))
	}
	res.set("trace_overhead_share", mean(&traced.single)/mean(&plain.single)-1, "ratio", 0)
	res.infof("single latency mean: traced %.1f us (n=%d) vs untraced %.1f us (n=%d)",
		mean(&traced.single)/1e3, traced.single.len(), mean(&plain.single)/1e3, plain.single.len())
	return sweepReplay(cfg, in, res)
}

// sweepReplay resolves the first specs of the seed's request stream one
// at a time through the engine of a fresh server on a fresh copy of the
// workload's log, with the benchmark's SpanSink attached: nanosecond
// canonicalise and cache-probe spans, which the server's microsecond
// trace export cannot resolve.
func sweepReplay(cfg config, in *inputs, res *result) error {
	const n = 4000
	dir := filepath.Join(cfg.workdir, "sweep-replay")
	if err := copyLog(in.logDir, dir); err != nil {
		return err
	}
	l, _, err := startLive(dir, cfg.nproc)
	if err != nil {
		return err
	}
	g := newRequestGen(in.universe, cfg.seed, 0, cfg.workload == "served-mixed")
	sink := newSpanSink()
	ctx := sweep.WithSpanSink(context.Background(), sink)
	for done := 0; done < n; {
		req := g.next()
		if req.kind == kindInvalid {
			continue
		}
		for _, idx := range req.want {
			e := in.universe.entries[idx]
			r, err := l.srv.Engine().ResolveCtx(ctx, e.spec)
			res.attempted++
			if err != nil || r.BW != e.ref {
				res.failed++
				res.infof("sweep replay %s: %v %v, reference %s", e.body, r.BW, err, e.ref)
			}
			done++
		}
	}
	setSpanMeans(res, sink)
	return l.stop()
}

// servedProbe measures the serve layer for workloads that bypass it:
// three trace windows of served-warm traffic on the seed's warm log.
func servedProbe(cfg config, in *inputs, res *result) error {
	l, _, err := startLive(in.logDir, cfg.nproc)
	if err != nil {
		return err
	}
	gens := make([]*requestGen, cfg.nproc)
	for i := range gens {
		gens[i] = newRequestGen(in.universe, cfg.seed, i, false)
	}
	tr := newTransport(cfg.nproc)
	t := newTally()
	an := newAnatomy()
	err = tracedPass(t, in.universe, l, &http.Client{Transport: tr}, func(i int) (request, bool) { return gens[i].next(), true },
		cfg.nproc, time.Now().Add(time.Hour), 3, an, "probe")
	tr.CloseIdleConnections()
	if serr := l.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	res.attempted += t.attempted
	res.failed += t.failed
	res.infof("serve.* come from a served-warm probe of %d requests (this workload bypasses the server)", t.requests)
	return setServeAnatomy(res, an)
}
