package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/search"
	"nocmap/internal/usecase"
)

// TestGoldenSearchDigests pins the wire summary of the serial annealing
// engines byte for byte: anneal and portfolio at seed 1 and default options
// on D1 and D2. The digests only move when a change alters a search
// trajectory, so an engine refactor that claims to preserve results must
// leave them untouched.
func TestGoldenSearchDigests(t *testing.T) {
	want := map[string]string{
		"anneal/D1":    "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		"anneal/D2":    "3603b225247ebb4922d3f94190919322dbfa688d06f436b934a640362decca25",
		"portfolio/D1": "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		"portfolio/D2": "3603b225247ebb4922d3f94190919322dbfa688d06f436b934a640362decca25",
	}
	for _, engine := range []string{"anneal", "portfolio"} {
		for _, design := range []string{"D1", "D2"} {
			name := engine + "/" + design
			t.Run(name, func(t *testing.T) {
				d, err := bench.ByName(design)
				if err != nil {
					t.Fatal(err)
				}
				prep, err := usecase.Prepare(d)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := search.New(engine)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Search(context.Background(), prep, d.NumCores(),
					core.DefaultParams(), search.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(SummarizeResult(d.Name, prep, res))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("summary digest %s, want %s\n%s", got, want[name], b)
				}
			})
		}
	}
}
