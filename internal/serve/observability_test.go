package serve

// Tests of the request-scoped observability layer: trace-ID
// propagation, the access and slow-query logs, the statusWriter's
// Flusher passthrough, the duration histogram, /statusz and the
// Chrome-trace export of recent requests.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncWriter serialises the access log against test readers.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestStatusWriterForwardsFlush pins the Flusher passthrough: an
// instrumented handler flushes one line, blocks until the client has
// read it off the wire, then writes the rest — impossible unless the
// statusWriter forwards Flush to the underlying writer while the
// handler is still running.
func TestStatusWriterForwardsFlush(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	h := s.instrument(2, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("instrumented writer does not expose http.Flusher")
			return
		}
		fmt.Fprintln(w, "first")
		f.Flush()
		<-release // held until the client confirms receipt
		fmt.Fprintln(w, "second")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n') // deadlocks into the client timeout if Flush is swallowed
	if err != nil || line != "first\n" {
		t.Fatalf("first flushed line: %q, %v", line, err)
	}
	close(release)
	rest, err := io.ReadAll(br)
	if err != nil || string(rest) != "second\n" {
		t.Fatalf("rest of body: %q, %v", rest, err)
	}

	// The interface-upgrade fallback: http.ResponseController reaches
	// the real writer through Unwrap.
	var w any = &statusWriter{ResponseWriter: httptest.NewRecorder()}
	if _, ok := w.(http.Flusher); !ok {
		t.Error("statusWriter does not implement http.Flusher")
	}
	if _, ok := w.(interface{ Unwrap() http.ResponseWriter }); !ok {
		t.Error("statusWriter does not implement Unwrap")
	}
}

// TestRequestIDPropagation checks the trace-ID contract: an incoming
// X-Request-ID is honored and echoed, a hostile one is sanitised, and
// an absent one is minted.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	post := func(id string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bandwidth", strings.NewReader(pinnedPairSpec))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
		resp.Body.Close()
		return resp
	}
	if got := post("trace-me-42").Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("honored ID = %q, want trace-me-42", got)
	}
	if got := post("bad id{with}junk!").Header.Get("X-Request-ID"); got != "badidwithjunk" {
		t.Errorf("sanitised ID = %q, want badidwithjunk", got)
	}
	minted := post("").Header.Get("X-Request-ID")
	if minted == "" || !strings.Contains(minted, "-") {
		t.Errorf("minted ID = %q, want <base>-<seq>", minted)
	}
	if again := post("").Header.Get("X-Request-ID"); again == minted {
		t.Errorf("minted IDs repeat: %q", again)
	}
}

// TestAccessLog checks the one-line-per-request slog contract: the
// request ID is byte-greppable and the line carries endpoint, status,
// answer path and theorem.
func TestAccessLog(t *testing.T) {
	var logw syncWriter
	_, ts := newTestServer(t, Options{
		Workers:   1,
		AccessLog: slog.New(slog.NewJSONHandler(&logw, nil)),
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bandwidth", strings.NewReader(pinnedPairSpec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "grep-me-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body irrelevant here
	resp.Body.Close()

	var line map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for {
		if raw := logw.String(); strings.Contains(raw, "grep-me-123") {
			if err := json.Unmarshal([]byte(strings.SplitN(raw, "\n", 2)[0]), &line); err != nil {
				t.Fatalf("access log line is not JSON: %v\n%s", err, raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request ID never reached the access log:\n%s", logw.String())
		}
		time.Sleep(time.Millisecond)
	}
	for key, want := range map[string]any{
		"msg": "request", "id": "grep-me-123", "endpoint": "bandwidth",
		"status": 200.0, "path": "analytic", "theorem": "eq-29", "results": 1.0,
	} {
		if got := line[key]; got != want {
			t.Errorf("access log %s = %v, want %v", key, got, want)
		}
	}
	if dur, ok := line["dur_ms"].(float64); !ok || dur < 0 {
		t.Errorf("access log dur_ms = %v", line["dur_ms"])
	}
}

// TestSlowQueryLog drives a request over an immediately-tripping slow
// threshold and checks both surfaces: the WARN log line with the span
// breakdown, and the /statusz slow-request section with provenance.
func TestSlowQueryLog(t *testing.T) {
	var logw syncWriter
	_, ts := newTestServer(t, Options{
		Workers:       1,
		AccessLog:     slog.New(slog.NewJSONHandler(&logw, nil)),
		SlowThreshold: time.Nanosecond,
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bandwidth", strings.NewReader(pinnedPairSpec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "slow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body irrelevant here
	resp.Body.Close()

	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logw.String(), "slow request") {
		if time.Now().After(deadline) {
			t.Fatalf("no slow-request WARN logged:\n%s", logw.String())
		}
		time.Sleep(time.Millisecond)
	}
	raw := logw.String()
	var warn map[string]any
	for _, l := range strings.Split(raw, "\n") {
		if strings.Contains(l, "slow request") {
			if err := json.Unmarshal([]byte(l), &warn); err != nil {
				t.Fatalf("WARN line not JSON: %v", err)
			}
		}
	}
	if warn["level"] != "WARN" || warn["id"] != "slow-1" || warn["path"] != "analytic" {
		t.Errorf("slow WARN = %v", warn)
	}
	spans, _ := warn["spans"].(string)
	if !strings.Contains(spans, "decode:") || !strings.Contains(spans, "gate:") {
		t.Errorf("span breakdown %q lacks decode/gate phases", spans)
	}

	sresp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	for _, want := range []string{"slow requests", "slow-1", "path=analytic theorem=eq-29", "decode:"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/statusz lacks %q", want)
		}
	}
}

// TestStatuszPage checks the page renders every section with live
// numbers after some traffic.
func TestStatuszPage(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	postJSON(t, ts.URL+"/v1/bandwidth", pinnedPairSpec)
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"ivmserved status", "uptime:", "endpoints", "bandwidth", "p95",
		"answer paths", "analytic", "engine", "cache hit rate", "slow requests",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/statusz lacks %q:\n%s", want, page)
		}
	}
}

// TestRequestTraceExport drives one identified request and finds it in
// the Chrome-trace export with its resolve-phase spans.
func TestRequestTraceExport(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/bandwidth", strings.NewReader(pinnedPairSpec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-export-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body irrelevant here
	resp.Body.Close()

	tresp, err := http.Get(ts.URL + "/debug/requests.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	doc, _ := io.ReadAll(tresp.Body)
	var parsed map[string]any
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("trace export is not JSON: %v", err)
	}
	for _, want := range []string{`"requests"`, "trace-export-7", `"bandwidth"`, `"decode"`, `"gate"`, `"encode"`} {
		if !bytes.Contains(doc, []byte(want)) {
			t.Errorf("trace export lacks %s", want)
		}
	}
}

// TestDurationHistogram pins the new native-histogram metric beside
// the kept seconds-total counter: _count equals the requests served
// per endpoint and the bucket series carry le labels.
func TestDurationHistogram(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	const n = 3
	for i := 0; i < n; i++ {
		postJSON(t, ts.URL+"/v1/bandwidth", pinnedPairSpec)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	out := string(metrics)
	for _, want := range []string{
		"# TYPE ivmserved_request_duration_seconds histogram",
		fmt.Sprintf(`ivmserved_request_duration_seconds_count{endpoint="bandwidth"} %d`, n),
		fmt.Sprintf(`ivmserved_request_duration_seconds_bucket{endpoint="bandwidth",le="+Inf"} %d`, n),
		`ivmserved_request_duration_seconds_bucket{endpoint="bandwidth",le="`,
		`ivmserved_request_duration_seconds_sum{endpoint="bandwidth"}`,
		// The dashboard-compatibility counter must survive the migration.
		`ivmserved_request_seconds_total{endpoint="bandwidth"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, out)
		}
	}
	// The JSON mirror exposes the same counts with quantile estimates.
	jresp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var mj struct {
		Requests map[string]struct {
			Count int64   `json:"count"`
			P95   float64 `json:"p95_seconds"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&mj); err != nil {
		t.Fatal(err)
	}
	bw := mj.Requests["bandwidth"]
	if bw.Count != n || bw.P95 <= 0 {
		t.Errorf("metrics.json requests.bandwidth = %+v, want count %d and p95 > 0", bw, n)
	}
}

// TestSweepStreamsRows checks the NDJSON sweep flushes rows (the
// Flusher bug's user-visible symptom was a fully buffered response):
// each row must parse independently and the response must carry the
// streaming content type.
func TestSweepStreamsRows(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/sweep?m=8&nc=2&d1=1&d2=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	rows := 0
	for sc.Scan() {
		var row SweepRowJSON
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d: %v", rows, err)
		}
		if row.B2 != rows {
			t.Errorf("row %d out of order: b2=%d", rows, row.B2)
		}
		rows++
	}
	if rows != 8 {
		t.Errorf("streamed %d rows, want 8", rows)
	}
}

// TestSanitizeRequestID pins the ID hygiene rules.
func TestSanitizeRequestID(t *testing.T) {
	for raw, want := range map[string]string{
		"":                       "",
		"ok-id_1.2:3/4":          "ok-id_1.2:3/4",
		"bad id\n{}\"":           "badid",
		"\x00\x01\x02":           "",
		strings.Repeat("a", 300): strings.Repeat("a", maxRequestIDLen),
	} {
		if got := sanitizeRequestID(raw); got != want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", raw, got, want)
		}
	}
}

// TestRingEviction wraps a ring past its capacity: the snapshot keeps
// the newest values oldest-first, and the running total counts every
// add, evicted or not.
func TestRingEviction(t *testing.T) {
	r := ring[int]{size: 3}
	if got, total := r.snapshot(); len(got) != 0 || total != 0 {
		t.Fatalf("empty ring: %v total %d", got, total)
	}
	for i := 1; i <= 2; i++ {
		r.add(i)
	}
	if got, total := r.snapshot(); fmt.Sprint(got) != "[1 2]" || total != 2 {
		t.Fatalf("under capacity: %v total %d", got, total)
	}
	for i := 3; i <= 7; i++ {
		r.add(i)
	}
	if got, total := r.snapshot(); fmt.Sprint(got) != "[5 6 7]" || total != 7 {
		t.Errorf("wrapped twice past capacity 3: %v total %d, want [5 6 7] total 7", got, total)
	}
}
