package service

import (
	"encoding/json"
	"testing"
)

// FuzzMapRequest feeds arbitrary bytes to the /v1/map request decoder.
// ToRequest must never panic, and every request it accepts (one with a
// valid cache key) must keep the same Request.Key after a JSON round trip
// of the wire form: the key is a function of what the request says, not
// of how its bytes were laid out.
func FuzzMapRequest(f *testing.F) {
	design := `{"name":"d","num_cores":3,"use_cases":[` +
		`{"name":"a","flows":[{"src":0,"dst":1,"bandwidth_mbs":10},{"src":1,"dst":2,"bandwidth_mbs":5,"max_latency_ns":900}]},` +
		`{"name":"b","flows":[{"src":2,"dst":0,"bandwidth_mbs":7}]}]}`
	f.Add([]byte(`{"design":` + design + `}`))
	f.Add([]byte(`{"design":` + design + `,"engine":"anneal","seed":3,"seeds":2,"iters":50,"budget":"2s","timeout_ms":100}`))
	f.Add([]byte(`{"design":` + design + `,"engine":"greedy","topology":"torus","freq_mhz":400,"slots":16,"max_dim":3,"improve":true}`))
	f.Add([]byte(`{"design":` + design + `,"population":8,"generations":4,"nodes":5000,"mode":"stream","wait_ms":10}`))
	f.Add([]byte(`{"design":` + design + `,"topology":"custom:ring"}`))
	f.Add([]byte(`{"design":` + design + `,"seeds":-1,"budget":"soon"}`))
	f.Add([]byte(`{"design":null}`))
	f.Add([]byte(`{"engine":"greedy"}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var mr MapRequest
		if err := json.Unmarshal(data, &mr); err != nil {
			return
		}
		req, err := mr.ToRequest()
		if err != nil {
			return // rejected without panicking: fine
		}
		want, err := req.Key()
		if err != nil {
			return
		}
		wire, err := json.Marshal(&mr)
		if err != nil {
			t.Fatalf("accepted request fails to re-marshal: %v (input %q)", err, data)
		}
		var again MapRequest
		if err := json.Unmarshal(wire, &again); err != nil {
			t.Fatalf("re-marshalled request fails to decode: %v (wire %q)", err, wire)
		}
		req2, err := again.ToRequest()
		if err != nil {
			t.Fatalf("re-marshalled request rejected: %v (wire %q)", err, wire)
		}
		got, err := req2.Key()
		if err != nil {
			t.Fatalf("re-marshalled request has no key: %v (wire %q)", err, wire)
		}
		if got != want {
			t.Fatalf("key changed under a JSON round trip: %s vs %s (input %q, wire %q)", got, want, data, wire)
		}
	})
}
