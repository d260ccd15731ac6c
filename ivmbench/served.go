package main

// served-warm and served-mixed: ivmserved's handler on a loopback
// listener in this process, driven by a closed loop of nproc clients
// over keep-alive connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ivm/internal/cachestore"
	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/rat"
	"ivm/internal/serve"
	"ivm/internal/sweep"
)

// Universe sizes and request mix.
const (
	universeCacheable = 1200    // fixed placements drawn from the census families
	universeGate      = 400     // theorem-provable pairs, m in {16, 32}, n_c = 2
	gateDrawShare     = 0.25    // share of drawn specs that are gate pairs
	unseenShare       = 1.0 / 3 // share of cacheable specs left out of the mixed log
	batchSize         = 64
	singlesPerBatch   = 4
	sweepShare        = 0.02 // served-mixed: share of requests that are NDJSON sweeps
	invalidShare      = 0.02 // served-mixed: share of requests that are invalid
	sweepVariants     = 8
	warmSlices        = 10  // served-warm restarts per run (setup_s samples)
	mixedRequests     = 150 // requests per client per served-mixed repetition
)

// entry is one fixed-placement spec of the universe.
type entry struct {
	spec   sweep.ConfigSpec
	body   []byte // the spec as a /v1 SpecJSON document
	ref    rat.Rational
	unseen bool // its orbit is not in the served-mixed log
}

// sweepReq is one GET /v1/sweep and the entries of its rows (b2 order).
type sweepReq struct {
	path string
	rows []int
}

// universe is the seed's spec universe with its reference answers and
// the two cache logs built from it.
type universe struct {
	entries   []entry
	cacheable []int
	gate      []int
	sweeps    []sweepReq
	full      []sweep.CacheRecord // every simulated orbit of the cacheable specs
	partial   []sweep.CacheRecord // the same without the unseen orbits
}

func specBody(spec sweep.ConfigSpec) []byte {
	sj := serve.SpecJSON{M: spec.M, S: spec.S, NC: spec.NC}
	if spec.Priority == memsys.CyclicPriority {
		sj.Priority = "cyclic"
	}
	for _, st := range spec.Streams {
		sj.Streams = append(sj.Streams, serve.StreamJSON{D: st.D, B: st.B, CPU: st.CPU})
	}
	b, err := json.Marshal(sj)
	if err != nil {
		panic(err) // a struct of ints and strings always encodes
	}
	return b
}

// cacheableSpec draws one fixed placement from the census families:
// pairs and triples on m = 13, n_c = 4 (fixed and cyclic priority) and
// section and two-CPU pairs on the X-MP memory (fixed and cyclic).
func cacheableSpec(rng *rand.Rand) sweep.ConfigSpec {
	d13 := func() int { return 1 + rng.Intn(censusM-1) }
	allowed16 := []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}
	d16 := func() int { return allowed16[rng.Intn(len(allowed16))] }
	b := func(m int) int { return rng.Intn(m) }
	var spec sweep.ConfigSpec
	switch k := rng.Intn(6); k {
	case 0, 1:
		spec = sweep.ConfigSpec{M: censusM, NC: censusNC, Streams: []sweep.Stream{
			{D: d13(), B: b(censusM), CPU: 0}, {D: d13(), B: b(censusM), CPU: 1}}}
		if k == 1 {
			spec.Priority = memsys.CyclicPriority
		}
	case 2:
		spec = sweep.ConfigSpec{M: censusM, NC: censusNC, Streams: []sweep.Stream{
			{D: d13(), B: b(censusM), CPU: 0}, {D: d13(), B: b(censusM), CPU: 1}, {D: d13(), B: b(censusM), CPU: 2}}}
	case 3, 4:
		spec = sweep.ConfigSpec{M: xmpM, S: xmpS, NC: xmpNC, Streams: []sweep.Stream{
			{D: d16(), B: b(xmpM), CPU: 0}, {D: d16(), B: b(xmpM), CPU: 0}}}
		if k == 4 {
			spec.Priority = memsys.CyclicPriority
		}
	default:
		spec = sweep.ConfigSpec{M: xmpM, S: xmpS, NC: xmpNC, Streams: []sweep.Stream{
			{D: d16(), B: b(xmpM), CPU: 0}, {D: d16(), B: b(xmpM), CPU: 1}}}
	}
	return spec
}

// gateSpecs lists n theorem-provable pair placements on m in {16, 32}
// with n_c = 2: placements core.PairGate answers without simulating.
func gateSpecs(rng *rand.Rand, n int) []sweep.ConfigSpec {
	type pair struct{ m, d1, d2 int }
	var pairs []pair
	for _, m := range []int{16, 32} {
		for d1 := 1; d1 < m; d1++ {
			for d2 := 1; d2 < m; d2++ {
				if core.NewPairGate(m, 2, d1, d2).Active() {
					pairs = append(pairs, pair{m, d1, d2})
				}
			}
		}
	}
	var out []sweep.ConfigSpec
	for len(out) < n {
		p := pairs[rng.Intn(len(pairs))]
		b1, b2 := rng.Intn(p.m), rng.Intn(p.m)
		if _, ok := core.NewPairGate(p.m, 2, p.d1, p.d2).BandwidthAt(b1, b2); !ok {
			continue
		}
		out = append(out, sweep.ConfigSpec{M: p.m, NC: 2, Streams: []sweep.Stream{
			{D: p.d1, B: b1, CPU: 0}, {D: p.d2, B: b2, CPU: 1}}})
	}
	return out
}

// orbitKey names a cache orbit: the coordinates of the engine's cache
// key.
func orbitKey(family string, m, s, nc int, cpus, vec []int) string {
	return fmt.Sprint(family, m, s, nc, cpus, vec)
}

// universeBase seeds the draw of the base universe. Every run seed
// sees the same base universe through its own bank renumberings
// (isoScale, as the census does), so seeds change the specs and the
// request streams but not the orbits, their simulation costs or which
// of them the mixed log leaves out.
const universeBase = 1

// buildUniverse draws the base universe, maps it through the seed's
// renumberings, answers it on the reference engine, and derives the
// full and partial logs from one cold default engine pass over the
// cacheable specs.
func buildUniverse(seed int64, nproc int) (*universe, error) {
	base := rand.New(rand.NewSource(universeBase))
	rng := rand.New(rand.NewSource(seed))
	// One bank renumbering j -> u*j + t per memory shape (m, s); on
	// sectioned memories t is a multiple of s (see censusSpecs).
	shapes := map[[2]int][2]int{}
	renumber := func(spec sweep.ConfigSpec) sweep.ConfigSpec {
		k := [2]int{spec.M, spec.S}
		r, ok := shapes[k]
		if !ok {
			us := units(spec.M)
			step := max(spec.S, 1)
			r = [2]int{us[rng.Intn(len(us))], step * rng.Intn(spec.M/step)}
			shapes[k] = r
		}
		return isoScale(spec, r[0], r[1])
	}
	u := &universe{}
	add := func(spec sweep.ConfigSpec) int {
		spec = renumber(spec)
		u.entries = append(u.entries, entry{spec: spec, body: specBody(spec)})
		return len(u.entries) - 1
	}
	for i := 0; i < universeCacheable; i++ {
		u.cacheable = append(u.cacheable, add(cacheableSpec(base)))
	}
	for _, spec := range gateSpecs(base, universeGate) {
		u.gate = append(u.gate, add(spec))
	}
	for i := 0; i < sweepVariants; i++ {
		prio, query := memsys.FixedPriority, ""
		if i%2 == 1 {
			prio, query = memsys.CyclicPriority, "&priority=cyclic"
		}
		pair := renumber(sweep.ConfigSpec{M: censusM, NC: censusNC, Streams: []sweep.Stream{
			{D: 1 + base.Intn(censusM-1), B: base.Intn(censusM), CPU: 0}, {D: 1 + base.Intn(censusM-1), CPU: 1}}})
		d1, d2, b1 := pair.Streams[0].D, pair.Streams[1].D, pair.Streams[0].B
		sr := sweepReq{path: fmt.Sprintf("/v1/sweep?m=%d&nc=%d&d1=%d&d2=%d&b1=%d%s", censusM, censusNC, d1, d2, b1, query)}
		for b2 := 0; b2 < censusM; b2++ {
			spec := sweep.ConfigSpec{M: censusM, NC: censusNC, Priority: prio, Streams: []sweep.Stream{
				{D: d1, B: b1, CPU: 0}, {D: d2, B: b2, CPU: 1}}}
			u.entries = append(u.entries, entry{spec: spec, body: specBody(spec)})
			sr.rows = append(sr.rows, len(u.entries)-1)
		}
		u.sweeps = append(u.sweeps, sr)
	}

	specs := make([]sweep.ConfigSpec, len(u.entries))
	for i, e := range u.entries {
		specs[i] = e.spec
	}
	ref, err := referenceEngine().ResolveBatch(specs)
	if err != nil {
		return nil, fmt.Errorf("reference answers: %w", err)
	}
	for i := range u.entries {
		u.entries[i].ref = ref[i].BW
	}

	cacheSpecs := make([]sweep.ConfigSpec, len(u.cacheable))
	for i, idx := range u.cacheable {
		cacheSpecs[i] = u.entries[idx].spec
	}
	eng := defaultEngine(nproc, sweep.Options{})
	res, err := eng.ResolveBatch(cacheSpecs)
	if err != nil {
		return nil, fmt.Errorf("log build: %w", err)
	}
	byOrbit := map[string][]int{}
	var orbits []string
	for i, r := range res {
		if r.Canonical == nil {
			continue // answered by the gate: never cached
		}
		spec := cacheSpecs[i]
		cpus := make([]int, len(spec.Streams))
		for j, st := range spec.Streams {
			cpus[j] = st.CPU
		}
		k := orbitKey(r.Family, spec.M, spec.S, spec.NC, cpus, r.Canonical)
		if byOrbit[k] == nil {
			orbits = append(orbits, k)
		}
		byOrbit[k] = append(byOrbit[k], u.cacheable[i])
	}
	base.Shuffle(len(orbits), func(i, j int) { orbits[i], orbits[j] = orbits[j], orbits[i] })
	unseen := map[string]bool{}
	target := int(unseenShare * float64(len(u.cacheable)))
	for n, i := 0, 0; n < target && i < len(orbits); i++ {
		unseen[orbits[i]] = true
		for _, idx := range byOrbit[orbits[i]] {
			u.entries[idx].unseen = true
			n++
		}
	}
	u.full = eng.CacheRecords()
	for _, rec := range u.full {
		if !unseen[orbitKey(rec.Family, rec.M, rec.S, rec.NC, rec.CPUs, rec.Vec)] {
			u.partial = append(u.partial, rec)
		}
	}
	return u, nil
}

// writeLog writes records as a fresh cachestore log under dir.
func writeLog(dir string, recs []sweep.CacheRecord) error {
	st, err := cachestore.Open(dir)
	if err != nil {
		return err
	}
	for _, r := range recs {
		st.Put(r)
	}
	return st.Close()
}

// copyLog copies the log of store directory src into a new store
// directory dst.
func copyLog(src, dst string) error {
	data, err := os.ReadFile(filepath.Join(src, cachestore.LogName))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dst, cachestore.LogName), data, 0o644)
}

// --- Requests -----------------------------------------------------------

type reqKind int

const (
	kindSingle reqKind = iota
	kindBatch
	kindSweep
	kindInvalid
)

var kindNames = [...]string{"bandwidth", "batch", "sweep", "invalid"}

// invalidRequests are the rejected-input slice of served-mixed: each
// must get the documented 400 with a JSON error body. The crashing
// input of the robustness open item (a batch with n_c near 10^7) is
// deliberately absent: it kills the process, and the benchmark with it.
var invalidRequests = []struct {
	name, path, body string
}{
	{"malformed-json", "/v1/bandwidth", `{"m":13,"nc":4,"streams":[{"d":1,`},
	{"distance-ge-m", "/v1/bandwidth", `{"m":13,"nc":4,"streams":[{"d":13,"b":0,"cpu":0},{"d":1,"b":0,"cpu":1}]}`},
	{"unknown-priority", "/v1/bandwidth", `{"m":13,"nc":4,"priority":"lottery","streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}`},
	{"empty-batch", "/v1/batch", `{"specs":[]}`},
}

// request is one prepared HTTP request and the entries it asks for.
type request struct {
	kind    reqKind
	method  string
	path    string
	body    []byte
	want    []int // entry indices answered, in response order
	invalid int   // index into invalidRequests for kindInvalid
}

// requestGen draws one client's request stream. The stream cycles one
// batch of batchSize specs and singlesPerBatch single requests; in
// served-mixed a sweepShare of requests are NDJSON sweeps and an
// invalidShare are invalid.
type requestGen struct {
	u     *universe
	rng   *rand.Rand
	mixed bool
	pos   int
}

func newRequestGen(u *universe, seed int64, client int, mixed bool) *requestGen {
	return &requestGen{u: u, rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), mixed: mixed}
}

func (g *requestGen) draw() int {
	if g.rng.Float64() < gateDrawShare {
		return g.u.gate[g.rng.Intn(len(g.u.gate))]
	}
	return g.u.cacheable[g.rng.Intn(len(g.u.cacheable))]
}

func (g *requestGen) next() request {
	if g.mixed {
		switch x := g.rng.Float64(); {
		case x < sweepShare:
			s := g.u.sweeps[g.rng.Intn(len(g.u.sweeps))]
			return request{kind: kindSweep, method: http.MethodGet, path: s.path, want: s.rows}
		case x < sweepShare+invalidShare:
			i := g.rng.Intn(len(invalidRequests))
			return request{kind: kindInvalid, method: http.MethodPost, path: invalidRequests[i].path,
				body: []byte(invalidRequests[i].body), invalid: i}
		}
	}
	pos := g.pos
	g.pos = (g.pos + 1) % (1 + singlesPerBatch)
	if pos == 0 {
		var buf bytes.Buffer
		buf.WriteString(`{"specs":[`)
		want := make([]int, batchSize)
		for i := range want {
			want[i] = g.draw()
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.Write(g.u.entries[want[i]].body)
		}
		buf.WriteString(`]}`)
		return request{kind: kindBatch, method: http.MethodPost, path: "/v1/batch", body: buf.Bytes(), want: want}
	}
	idx := g.draw()
	return request{kind: kindSingle, method: http.MethodPost, path: "/v1/bandwidth", body: g.u.entries[idx].body, want: []int{idx}}
}

// --- Server lifecycle ---------------------------------------------------

// live is a running server: the store, the serve.Server and its
// loopback listener.
type live struct {
	srv    *serve.Server
	store  *cachestore.Store
	hs     *http.Server
	base   string
	served chan error
}

// startLive opens the store in dir, builds the server warm-seeded from
// it and starts listening. The returned duration is the set-up time:
// cachestore.Open + serve.New + the listener. It starts from a
// collected heap (untimed), so a collection owed by earlier work does
// not land in the set-up.
func startLive(dir string, nproc int) (*live, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := cachestore.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Options{Workers: nproc, Store: st})
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	l := &live{srv: srv, store: st, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, time.Since(t0), nil
}

// stop shuts the server down, waits for it, and closes the store.
func (l *live) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := l.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// --- Closed-loop clients ------------------------------------------------

// tally is what one pass of clients measured.
type tally struct {
	mu                sync.Mutex
	single, batch     samples
	sweep, invalid    samples
	requests, specs   int64
	unseen            int64 // answered specs whose orbit is not in the log
	attempted, failed int64
	paths             map[string]int64
	failures          []string
	// traced holds, per request ID, the client-side latency in ns of a
	// traced pass.
	traced map[string]int64
}

func newTally() *tally { return &tally{paths: map[string]int64{}, traced: map[string]int64{}} }

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

type answer struct {
	Num  int64  `json:"num"`
	Den  int64  `json:"den"`
	Path string `json:"path"`
}

// check verifies one response against the reference and counts paths.
func (t *tally) check(u *universe, req request, status int, body []byte) {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	if req.kind == kindInvalid {
		var e struct {
			Error string `json:"error"`
		}
		if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error == "" {
			t.fail("%s: status %d body %.80q, want 400 with an error", invalidRequests[req.invalid].name, status, body)
		}
		return
	}
	if status != http.StatusOK {
		t.fail("%s %s: status %d: %.120s", req.method, req.path, status, body)
		return
	}
	var got []answer
	switch req.kind {
	case kindSingle:
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			t.fail("bandwidth: %v", err)
			return
		}
		got = []answer{a}
	case kindBatch:
		var b struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			t.fail("batch: %v", err)
			return
		}
		got = b.Results
	case kindSweep:
		dec := json.NewDecoder(bytes.NewReader(body))
		for dec.More() {
			var a answer
			if err := dec.Decode(&a); err != nil {
				t.fail("sweep: %v", err)
				return
			}
			got = append(got, a)
		}
	}
	if len(got) != len(req.want) {
		t.fail("%s: %d answers, want %d", req.path, len(got), len(req.want))
		return
	}
	paths := map[string]int64{}
	for i, a := range got {
		want := u.entries[req.want[i]].ref
		if a.Num != want.Num || a.Den != want.Den {
			t.fail("%s item %d (%s): b_eff %d/%d, reference %s", req.path, i, u.entries[req.want[i]].body, a.Num, a.Den, want)
			return
		}
		paths[a.Path]++
	}
	t.mu.Lock()
	t.specs += int64(len(got))
	for _, idx := range req.want {
		if u.entries[idx].unseen {
			t.unseen++
		}
	}
	for p, n := range paths {
		t.paths[p] += n
	}
	t.mu.Unlock()
}

// newTransport is the clients' keep-alive transport: at most nproc
// connections to the one server.
func newTransport(nproc int) *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc, DisableCompression: true}
}

// do sends one request and reads the whole body. The latency runs from
// send until the body is read.
func do(c *http.Client, base string, req request, id string) (int, []byte, time.Duration, error) {
	hr, err := http.NewRequest(req.method, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, 0, err
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if id != "" {
		hr.Header.Set("X-Request-ID", id)
	}
	t0 := time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, body, d, err
}

// runOne sends one request, records its latency and checks it.
func (t *tally) runOne(c *http.Client, u *universe, base string, req request, id string) {
	status, body, d, err := do(c, base, req, id)
	t.mu.Lock()
	t.requests++
	t.mu.Unlock()
	if err != nil {
		t.mu.Lock()
		t.attempted++
		t.mu.Unlock()
		t.fail("%s %s: %v", req.method, req.path, err)
		return
	}
	switch req.kind {
	case kindSingle:
		t.single.add(d)
	case kindBatch:
		t.batch.add(d)
	case kindSweep:
		t.sweep.add(d)
	case kindInvalid:
		t.invalid.add(d)
	}
	if id != "" {
		t.mu.Lock()
		t.traced[id] = d.Nanoseconds()
		t.mu.Unlock()
	}
	t.check(u, req, status, body)
}

// closedLoop runs one client per generator against base until end,
// each sending its next request only after the previous one completed.
// It returns the wall time the clients were running.
func closedLoop(t *tally, u *universe, base string, gens []*requestGen, c *http.Client, end time.Time) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, g := range gens {
		wg.Add(1)
		go func(g *requestGen) {
			defer wg.Done()
			for time.Now().Before(end) {
				t.runOne(c, u, base, g.next(), "")
			}
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}

// servedMetrics sets the served workloads' end-to-end metrics.
func servedMetrics(res *result, t *tally, ws *windowSet, setups []time.Duration) {
	res.attempted, res.failed = t.attempted, t.failed
	res.set("setup_s", medianSeconds(setups), "s", len(setups))
	ws.report(res)
	for _, f := range t.failures {
		res.infof("failure: %s", f)
	}
	res.infof("paths %s", pathSplit(t.paths))
	if n := t.sweep.len(); n > 0 {
		res.infof("sweep_p50_ms %.4f ms (n=%d)", t.sweep.quantile(0.5)/1e6, n)
	}
	if n := t.invalid.len(); n > 0 {
		res.infof("invalid requests answered 400: %d", n)
	}
}

// addLoad folds one slice or repetition of load into the windows: the
// requests and specs answered since the previous call, over load.
func addLoad(ws *windowSet, t *tally, load time.Duration, prevSpecs, prevReqs *int64) {
	t.mu.Lock()
	specs, reqs := t.specs-*prevSpecs, t.requests-*prevReqs
	*prevSpecs, *prevReqs = t.specs, t.requests
	t.mu.Unlock()
	ws.add(&t.single, &t.batch, specs, reqs, load)
}

// pathSplit renders answer-path counts as shares.
func pathSplit(paths map[string]int64) string {
	var total int64
	var names []string
	for p, n := range paths {
		total += n
		names = append(names, p)
	}
	sort.Strings(names)
	var parts []string
	for _, p := range names {
		parts = append(parts, fmt.Sprintf("%s=%.4f", p, float64(paths[p])/float64(max(total, 1))))
	}
	return strings.Join(parts, " ")
}

// warmRestarts is how many extra warm restarts served-warm times for
// its setup_s median before each slice of load, beside the one that
// serves the slice; the samples spread over the run like the other
// figures.
const warmRestarts = 2

// runServedWarm measures served-warm: warmSlices warm restarts from the
// full log, each followed by an equal slice of closed-loop load.
func runServedWarm(cfg config, u *universe, logDir string) (*result, error) {
	res := newResult()
	t := newTally()
	gens := make([]*requestGen, cfg.nproc)
	for i := range gens {
		gens[i] = newRequestGen(u, cfg.seed, i, false)
	}
	var setups []time.Duration
	ws := newWindowSet()
	var specs, reqs int64
	slice := cfg.duration / warmSlices
	for s := 0; s < warmSlices; s++ {
		for i := 0; i < warmRestarts; i++ {
			l, setup, err := startLive(logDir, cfg.nproc)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup)
			if err := l.stop(); err != nil {
				return nil, err
			}
		}
		l, setup, err := startLive(logDir, cfg.nproc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		tr := newTransport(cfg.nproc)
		load := closedLoop(t, u, l.base, gens, &http.Client{Transport: tr}, time.Now().Add(slice))
		addLoad(ws, t, load, &specs, &reqs)
		tr.CloseIdleConnections()
		if err := l.stop(); err != nil {
			return nil, err
		}
	}
	servedMetrics(res, t, ws, setups)
	return res, nil
}

// runServedMixed measures served-mixed: repetitions of a fresh server
// on a fresh copy of the partial log, each answering mixedRequests
// requests per client, until the deadline. Every repetition starts
// from the same log, so the orbits it misses are the same each time
// (a repetition draws nearly every unseen orbit); the requests are
// fresh draws, so how the misses fall between singles and batches
// averages out over the run instead of being fixed by the seed.
func runServedMixed(cfg config, u *universe, logDir string) (*result, error) {
	res := newResult()
	t := newTally()
	gens := make([]*requestGen, cfg.nproc)
	for i := range gens {
		gens[i] = newRequestGen(u, cfg.seed, i, true)
	}
	ws := newWindowSet()
	var setups []time.Duration
	var specs, reqs int64
	var appended []int
	deadline := time.Now().Add(cfg.duration)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("mixed-rep-%d", rep))
		if err := copyLog(logDir, dir); err != nil {
			return nil, err
		}
		l, setup, err := startLive(dir, cfg.nproc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		before := l.store.Len()
		tr := newTransport(cfg.nproc)
		load := runRep(t, u, l.base, gens, &http.Client{Transport: tr})
		addLoad(ws, t, load, &specs, &reqs)
		tr.CloseIdleConnections()
		appended = append(appended, l.store.Len()-before)
		if err := l.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	servedMetrics(res, t, ws, setups)
	res.infof("repetitions %d; drawn specs with an orbit missing from the log %.1f%%; store appends per repetition %v",
		len(setups), 100*float64(t.unseen)/float64(max(t.specs, 1)), appended[:min(len(appended), 4)])
	return res, nil
}

// runRep sends mixedRequests requests per client, concurrently, each
// client in a closed loop.
func runRep(t *tally, u *universe, base string, gens []*requestGen, c *http.Client) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, g := range gens {
		wg.Add(1)
		go func(g *requestGen) {
			defer wg.Done()
			for j := 0; j < mixedRequests; j++ {
				t.runOne(c, u, base, g.next(), "")
			}
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}
