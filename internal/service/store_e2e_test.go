package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nocmap/internal/store"
)

// newDiskService builds a service over a disk-backed store rooted at dir.
func newDiskService(t *testing.T, dir string) *Service {
	t.Helper()
	d, err := store.OpenDisk(dir, store.DiskOptions{Codec: ResponseCodec{}})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return New(Config{Workers: 2, Store: d})
}

// TestDiskStoreSurvivesServiceRestart is the durability e2e: a result mapped
// by one service process is a byte-identical cache hit in the next process
// over the same store directory — no engine re-run.
func TestDiskStoreSurvivesServiceRestart(t *testing.T) {
	dir := t.TempDir()
	runs := registerGate("count-disk-restart", nil)
	req := testRequest("count-disk-restart", testDesign("disk-restart"))

	s1 := newDiskService(t, dir)
	first, err := s1.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported as cached")
	}
	if st := s1.Stats(); st.StoreBackend != "disk" || st.StoreEntries != 1 {
		t.Errorf("stats after map = %+v, want disk backend with 1 entry", st)
	}
	s1.Close() // the "crash": the process goes away, the directory stays

	s2 := newDiskService(t, dir)
	defer s2.Close()
	second, err := s2.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical request after restart missed the durable cache")
	}
	if runs.Load() != 1 {
		t.Errorf("engine ran %d times across the restart, want 1", runs.Load())
	}
	j1, _ := json.Marshal(first.Result)
	j2, _ := json.Marshal(second.Result)
	if string(j1) != string(j2) {
		t.Errorf("post-restart result differs from the original:\n%s\nvs\n%s", j1, j2)
	}
	if st := s2.Stats(); st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Errorf("post-restart stats = %+v, want 1 hit / 0 misses", st)
	}
}

// TestDiskStoreNeverDowngradesAcrossRestart drives the replace-only-with-
// better invariant through the service layer: a durable entry survives a
// restart and a plain re-Put of a costlier result for the same key is
// refused by the disk tier.
func TestDiskStoreNeverDowngradesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := testRequest("greedy", testDesign("disk-cas"))
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}

	s1 := newDiskService(t, dir)
	resp, err := s1.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	cost := costOfResult(resp.Result, req.Opts.Weights)
	s1.Close()

	d, err := store.OpenDisk(dir, store.DiskOptions{Codec: ResponseCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pr, err := d.Put(context.Background(), key, store.Entry{Cost: cost + 100, Val: resp})
	if err != nil || pr.Installed {
		t.Fatalf("costlier Put after restart = %+v, %v; want refused", pr, err)
	}
	e, ok, err := d.Get(context.Background(), key)
	if err != nil || !ok || e.Cost != cost {
		t.Fatalf("durable entry = %+v ok=%v err=%v, want original cost %v", e, ok, err, cost)
	}
}

// TestDesignsEndpoint pins GET /v1/designs/{digest}: the cached result for
// a known digest, 404 for an unknown one.
func TestDesignsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := NewHandler(s)

	req := testRequest("greedy", testDesign("designs-endpoint"))
	resp, err := s.Map(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/designs/"+resp.Key, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/designs/{digest} = %d, body %s", rec.Code, rec.Body)
	}
	var got Response
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Key != resp.Key {
		t.Errorf("designs response = cached=%v key=%q, want cached copy of %q", got.Cached, got.Key, resp.Key)
	}
	j1, _ := json.Marshal(resp.Result)
	j2, _ := json.Marshal(got.Result)
	if string(j1) != string(j2) {
		t.Errorf("designs result differs from the mapped result:\n%s\nvs\n%s", j1, j2)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/designs/"+strings.Repeat("0", 64), nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown digest = %d, want 404", rec.Code)
	}
}

// TestStatsReportsStoreBackend pins the /v1/stats store keys:
// store_backend and store_entries report the backend and its entry count,
// and the retired cache_entries alias is gone.
func TestStatsReportsStoreBackend(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Map(context.Background(), testRequest("greedy", testDesign("stats-backend"))); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["store_backend"] != "memory" {
		t.Errorf("store_backend = %v, want memory", got["store_backend"])
	}
	if got["store_entries"] != float64(1) {
		t.Errorf("store_entries = %v, want 1", got["store_entries"])
	}
	if v, ok := got["cache_entries"]; ok {
		t.Errorf("cache_entries = %v present, want the alias absent", v)
	}
}
