package noc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nocmap/pkg/noc"
)

// newTestDaemon starts an in-process nocserved equivalent and returns a
// client speaking /v1 to it.
func newTestDaemon(t *testing.T) (*noc.Client, *httptest.Server) {
	t.Helper()
	server := noc.NewServer(noc.ServerConfig{Workers: 2})
	t.Cleanup(server.Close)
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(ts.Close)
	return noc.NewClient(ts.URL, noc.WithTimeout(time.Minute)), ts
}

// TestClientV1EndToEnd drives every /v1 route through the SDK client: a
// synchronous map (computed, then cached), an async submit/poll cycle, a
// batch, the stats gauges and the version endpoint.
func TestClientV1EndToEnd(t *testing.T) {
	client, _ := newTestDaemon(t)
	ctx := context.Background()
	d := fig5Design(t)

	resp, err := client.Map(ctx, d, noc.WithEngine("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.Engine != "greedy" || resp.Result.Switches < 1 {
		t.Fatalf("first map: %+v", resp)
	}
	if len(resp.Result.Violations) != 0 {
		t.Fatalf("violations on fig5: %v", resp.Result.Violations)
	}

	// The same request hits the daemon's cache with a byte-identical result.
	again, err := client.Map(ctx, d, noc.WithEngine("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical request was not served from cache")
	}
	a, _ := json.Marshal(resp.Result)
	b, _ := json.Marshal(again.Result)
	if !bytes.Equal(a, b) {
		t.Errorf("cache hit result diverged:\n%s\nvs\n%s", a, b)
	}

	// A local run of the same design produces the identical summary — the
	// SDK's "one pipeline, two transports" guarantee.
	local, err := noc.Map(ctx, d, noc.WithEngine("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	l, _ := json.Marshal(local.Summary)
	if !bytes.Equal(l, a) {
		t.Errorf("local and remote summaries diverge:\n%s\nvs\n%s", l, a)
	}

	// Async: submit with a distinct seed (fresh cache key) and poll.
	st, err := client.Submit(ctx, d, noc.WithEngine("anneal"), noc.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("submit returned no job ID: %+v", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State != "done" && st.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		if st, err = client.Job(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != "done" || st.Result == nil {
		t.Fatalf("job finished badly: %+v", st)
	}

	// Batch: two requests, one of them invalid at the engine level is still
	// a per-item outcome, not a transport error.
	req1, err := noc.BuildMapRequest(d, noc.WithEngine("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	req2, err := noc.BuildMapRequest(d, noc.WithEngine("greedy"), noc.WithFrequencyMHz(700))
	if err != nil {
		t.Fatal(err)
	}
	items, err := client.Batch(ctx, []noc.MapRequest{req1, req2})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("batch returned %d items, want 2", len(items))
	}
	for i, it := range items {
		if it.Error != "" || it.Response == nil {
			t.Errorf("batch item %d: %+v", i, it)
		}
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits < 1 || stats.JobsDone < 2 {
		t.Errorf("stats don't reflect the session: %+v", stats)
	}

	v, err := client.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Version == "" {
		t.Errorf("version endpoint returned empty identity: %+v", v)
	}
}

// TestLegacyRoutesGone pins the retirement of the pre-/v1 aliases: the
// unversioned paths answer 404 while the same request on /v1 succeeds.
func TestLegacyRoutesGone(t *testing.T) {
	_, ts := newTestDaemon(t)
	mr, err := noc.BuildMapRequest(fig5Design(t))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(mr)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct{ method, path string }{
		{"POST", "/map"},
		{"POST", "/batch"},
		{"GET", "/stats"},
		{"GET", "/jobs/j1"},
		{"GET", "/jobs/j1/events"},
		{"POST", "/v1/map"},
	} {
		var resp *http.Response
		var err error
		switch route.method {
		case "POST":
			resp, err = http.Post(ts.URL+route.path, "application/json", bytes.NewReader(body))
		default:
			resp, err = http.Get(ts.URL + route.path)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if strings.HasPrefix(route.path, "/v1/") {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("%s %s = %d, want %d", route.method, route.path, resp.StatusCode, want)
		}
	}
}

// TestBuildMapRequestRejectsLocalOnlyOptions pins the SDK/service boundary:
// options the service cannot honor fail loudly at request-build time.
func TestBuildMapRequestRejectsLocalOnlyOptions(t *testing.T) {
	d := fig5Design(t)
	cases := []struct {
		name string
		opt  noc.Option
	}{
		{"WithProgress", noc.WithProgress(func(noc.Event) {})},
		{"WithWeights", noc.WithWeights(noc.DefaultWeights())},
		{"WithParams", noc.WithParams(noc.DefaultParams())},
		{"WithWorkers", noc.WithWorkers(2)},
		{"WithRestarts", noc.WithRestarts(2)},
		{"custom fabric", noc.WithTopology("@ring.json")},
	}
	for _, c := range cases {
		if _, err := noc.BuildMapRequest(d, c.opt); err == nil {
			t.Errorf("%s: BuildMapRequest should refuse this local-only option", c.name)
		}
	}
}

// TestClientTimeout pins the -timeout satellite: a daemon that never
// answers fails the call instead of hanging it.
func TestClientTimeout(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer ts.Close()
	defer close(stall)

	client := noc.NewClient(ts.URL, noc.WithTimeout(50*time.Millisecond))
	start := time.Now()
	_, err := client.Map(context.Background(), fig5Design(t))
	if err == nil {
		t.Fatal("Map against a stalled server should fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; the client did not honor WithTimeout", elapsed)
	}
}
