package ivm

// Serving-layer benchmarks: request throughput of the ivmserved HTTP
// API over a real (in-process) HTTP server, single queries versus
// amortised batches and cold versus warm caches. scripts/bench.sh
// distils these into the "served" block of BENCH_sweep.json.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ivm/internal/serve"
)

// servedSpecs builds a census of fixed-placement triple specs on a
// simulation-heavy prime-bank memory: several stride triples, each
// over a spread of relative placements, so a cold pass simulates many
// distinct orbits and a warm pass answers from the cache.
func servedSpecs(n int) []serve.SpecJSON {
	strides := [][3]int{{1, 2, 6}, {1, 3, 5}, {2, 5, 6}, {1, 4, 6}}
	specs := make([]serve.SpecJSON, 0, n)
	for i := 0; len(specs) < n; i++ {
		d := strides[i%len(strides)]
		b := [3]int{0, (i / len(strides)) % 13, (i / (13 * len(strides))) % 13}
		specs = append(specs, serve.SpecJSON{
			M: 13, NC: 4,
			Streams: []serve.StreamJSON{
				{D: d[0], B: b[0], CPU: 0},
				{D: d[1], B: b[1], CPU: 1},
				{D: d[2], B: b[2], CPU: 2},
			},
		})
	}
	return specs
}

// postServed posts body to url and decodes the batch response.
func postServed(b *testing.B, url string, body []byte) serve.BatchResponse {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var br serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("batch status %d", resp.StatusCode)
	}
	return br
}

// BenchmarkServedSingle measures single-query throughput of POST
// /v1/bandwidth: one spec per request, cycling a census so the steady
// state mixes cache hits with the occasional simulation.
func BenchmarkServedSingle(b *testing.B) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	specs := servedSpecs(256)
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		if bodies[i], err = json.Marshal(s); err != nil {
			b.Fatal(err)
		}
	}
	// One untimed warmup request absorbs the one-time costs (connection
	// setup, the first cold simulation) that are not the steady state
	// this benchmark documents — at tiny b.N (the check.sh 1x smoke)
	// they would otherwise dominate the measurement. Every response is
	// read to its end before Close, so net/http reuses the connection
	// instead of dialling a new one per request.
	if resp, err := http.Post(ts.URL+"/v1/bandwidth", "application/json", bytes.NewReader(bodies[0])); err != nil {
		b.Fatal(err)
	} else {
		drain(resp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/bandwidth", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		drain(resp)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req_per_s")
}

// drain reads a response body to its end and closes it, which lets the
// client put the connection back in its idle pool.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the reuse matters
	resp.Body.Close()
}

// BenchmarkServedBatch measures amortised batch throughput of POST
// /v1/batch, cold (fresh server, every orbit simulated) against warm
// (same batch re-issued, answered from the cache), in specs resolved
// per second.
func BenchmarkServedBatch(b *testing.B) {
	specs := servedSpecs(512)
	body, err := json.Marshal(serve.BatchRequest{Specs: specs})
	if err != nil {
		b.Fatal(err)
	}
	var cold, warm time.Duration
	var warmHits, warmTotal int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := serve.New(serve.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t0 := time.Now()
		postServed(b, ts.URL+"/v1/batch", body)
		cold += time.Since(t0)
		t0 = time.Now()
		wr := postServed(b, ts.URL+"/v1/batch", body)
		warm += time.Since(t0)
		warmHits += wr.Paths["cache"]
		warmTotal += len(wr.Results)
		ts.Close()
	}
	n := float64(len(specs)) * float64(b.N)
	b.ReportMetric(n/cold.Seconds(), "cold_specs_per_s")
	b.ReportMetric(n/warm.Seconds(), "warm_specs_per_s")
	b.ReportMetric(100*float64(warmHits)/float64(warmTotal), "warm_cache_hit_%")
}
