package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// d1JSON loads the checked-in D1 example design — the same file the CLI
// documentation exercises.
func d1JSON(t *testing.T) json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile("../../examples/designs/d1.json")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newTestServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	s := New(Config{Workers: 4})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServerMapD1AllEngines is the acceptance-path e2e: POST /map serves the
// checked-in D1 design with every registered engine, a repeated identical
// request is a cache hit, and /stats proves it.
func TestServerMapD1AllEngines(t *testing.T) {
	ts, _ := newTestServer(t)
	design := d1JSON(t)

	small := 20 // keep the metaheuristic engines interactive under -race
	seeds := 2
	for _, engine := range []string{"greedy", "anneal", "portfolio"} {
		httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
			Design: design, Engine: engine, Iters: &small, Seeds: &seeds,
		})
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("POST /map engine=%s: HTTP %d: %s", engine, httpResp.StatusCode, body)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Engine != engine || resp.Cached {
			t.Errorf("engine %s: response engine=%q cached=%t", engine, resp.Engine, resp.Cached)
		}
		if resp.Result.Switches < 1 || resp.Result.Rows < 1 {
			t.Errorf("engine %s: degenerate result %+v", engine, resp.Result)
		}
		if len(resp.Result.Violations) > 0 {
			t.Errorf("engine %s: verification violations: %v", engine, resp.Result.Violations)
		}
		if resp.Result.Design != "D1-settopbox-4uc" || len(resp.Result.UseCases) != 4 {
			t.Errorf("engine %s: wrong design summary %+v", engine, resp.Result)
		}
	}

	// The repeat of the greedy request must be served from the cache …
	httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
		Design: design, Engine: "greedy", Iters: &small, Seeds: &seeds,
	})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST /map: HTTP %d", httpResp.StatusCode)
	}
	var repeat Response
	if err := json.Unmarshal(body, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached {
		t.Error("repeated identical request was not a cache hit")
	}

	// … and the counters must say so: three engine runs, one hit.
	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("GET /stats: HTTP %d", code)
	}
	if st.CacheMisses != 3 || st.CacheHits != 1 || st.JobsDone != 3 {
		t.Errorf("stats after e2e run = %+v, want 3 misses / 1 hit / 3 done", st)
	}
}

// TestServerAsyncJob covers the async path: map → poll job → fetch result.
func TestServerAsyncJob(t *testing.T) {
	ts, _ := newTestServer(t)

	httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{
		Design: d1JSON(t), Engine: "greedy", Async: true,
	})
	if httpResp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST /map: HTTP %d: %s", httpResp.StatusCode, body)
	}
	var job JobStatus
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" {
		t.Fatalf("async response carries no job ID: %s", body)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: HTTP %d", job.ID, code)
		}
		if job.State == StateDone || job.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", job.ID, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.State != StateDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	if job.Result == nil || job.Result.Result.Switches < 1 {
		t.Errorf("done job carries no result: %+v", job)
	}
}

func TestServerBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	design := d1JSON(t)

	// Three identical requests plus one at a different frequency: the
	// duplicates must share a key (one engine run), the variant must not.
	var br BatchRequest
	for i := 0; i < 3; i++ {
		br.Requests = append(br.Requests, MapRequest{Design: design, Engine: "greedy"})
	}
	freq := 300.0
	br.Requests = append(br.Requests, MapRequest{Design: design, Engine: "greedy", FreqMHz: &freq})

	httpResp, body := postJSON(t, ts.URL+"/v1/batch", br)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: HTTP %d: %s", httpResp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d batch results, want 4", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != "" || r.Response == nil {
			t.Fatalf("batch result %d: error %q", i, r.Error)
		}
	}
	if k := out.Results[0].Response.Key; out.Results[1].Response.Key != k || out.Results[2].Response.Key != k {
		t.Error("identical batch requests keyed differently")
	}
	if out.Results[3].Response.Key == out.Results[0].Response.Key {
		t.Error("different-frequency request shares the duplicates' key")
	}
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.JobsDone != 2 {
		t.Errorf("batch of 4 (3 identical) cost %d engine runs, want 2", st.JobsDone)
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", "{", http.StatusBadRequest},
		{"no design", `{"engine":"greedy"}`, http.StatusBadRequest},
		{"unknown engine", fmt.Sprintf(`{"design":%s,"engine":"quantum"}`, d1JSON(t)), http.StatusBadRequest},
		{"bad budget", fmt.Sprintf(`{"design":%s,"budget":"soon"}`, d1JSON(t)), http.StatusBadRequest},
		{"invalid design", `{"design":{"name":"x","num_cores":0,"use_cases":[]}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j404", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	var health healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Errorf("healthz: HTTP %d, body %+v", code, health)
	}
	if health.Version.Version == "" {
		t.Errorf("healthz reports no build version: %+v", health)
	}

	// An infeasible design (more communicating cores than a 1x1 mesh can
	// seat, with growth capped at 1) maps to 422.
	infeasible := `{"design":{"name":"inf","num_cores":10,"use_cases":[{"name":"u","flows":[` +
		`{"src":0,"dst":1,"bandwidth_mbs":10},{"src":2,"dst":3,"bandwidth_mbs":10},` +
		`{"src":4,"dst":5,"bandwidth_mbs":10},{"src":6,"dst":7,"bandwidth_mbs":10},` +
		`{"src":8,"dst":9,"bandwidth_mbs":10}]}]},"max_dim":1}`
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader([]byte(infeasible)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible design: HTTP %d, want 422", resp.StatusCode)
	}
}

// POST /map with a topology field must run on that fabric, produce a cache
// key distinct from the mesh run of the same design, and reject unknown
// fabrics with 400.
func TestServerMapTopologyField(t *testing.T) {
	ts, _ := newTestServer(t)
	design := d1JSON(t)

	var keys []string
	for _, topo := range []string{"", "torus"} {
		httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: design, Topology: topo})
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("topology %q: HTTP %d: %s", topo, httpResp.StatusCode, body)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Result.Violations) != 0 {
			t.Fatalf("topology %q: violations %v", topo, resp.Result.Violations)
		}
		keys = append(keys, resp.Key)
	}
	if keys[0] == keys[1] {
		t.Errorf("mesh and torus requests share cache key %s", keys[0])
	}

	httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: design, Topology: "hypercube"})
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown topology: HTTP %d: %s", httpResp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("hypercube")) {
		t.Errorf("error body %s should name the bad fabric", body)
	}
}

// A "topology" tag inside the design JSON applies when the request carries
// no explicit override, keying the cache separately from the mesh run.
func TestServerDesignTopologyTag(t *testing.T) {
	ts, _ := newTestServer(t)
	design := d1JSON(t)
	var tagged map[string]any
	if err := json.Unmarshal(design, &tagged); err != nil {
		t.Fatal(err)
	}
	tagged["topology"] = "torus"
	taggedRaw, err := json.Marshal(tagged)
	if err != nil {
		t.Fatal(err)
	}

	httpResp, body := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: taggedRaw})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("tagged design: HTTP %d: %s", httpResp.StatusCode, body)
	}
	var torusResp Response
	if err := json.Unmarshal(body, &torusResp); err != nil {
		t.Fatal(err)
	}
	_, meshBody := postJSON(t, ts.URL+"/v1/map", MapRequest{Design: design})
	var meshResp Response
	if err := json.Unmarshal(meshBody, &meshResp); err != nil {
		t.Fatal(err)
	}
	if torusResp.Key == meshResp.Key {
		t.Error("design-tagged torus request shares the mesh cache key")
	}
}

// TestServerBodyLimit pins the boundary cap on request bodies: /v1/map and
// /v1/batch answer a body one byte over maxRequestBytes with 413 and an
// error naming the limit, while a request padded to exactly the limit is
// still served.
func TestServerBodyLimit(t *testing.T) {
	ts, _ := newTestServer(t)
	// pad surrounds a request with JSON whitespace up to n bytes in total.
	pad := func(body string, n int) []byte {
		return append([]byte(body[:len(body)-1]+strings.Repeat(" ", n-len(body))), '}')
	}
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decode response: %v", path, err)
		}
		return resp.StatusCode, e.Error
	}
	mapBody := fmt.Sprintf(`{"design":%s}`, d1JSON(t))
	for path, body := range map[string]string{
		"/v1/map":   mapBody,
		"/v1/batch": fmt.Sprintf(`{"requests":[%s]}`, mapBody),
	} {
		code, msg := post(path, pad(body, maxRequestBytes+1))
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over the limit: HTTP %d (%s), want 413", path, code, msg)
		}
		if !strings.Contains(msg, "16777216-byte") {
			t.Errorf("%s over the limit: error %q does not name the limit", path, msg)
		}
	}
	if code, msg := post("/v1/map", pad(mapBody, maxRequestBytes)); code != http.StatusOK {
		t.Errorf("/v1/map at the limit: HTTP %d (%s), want 200", code, msg)
	}
}
