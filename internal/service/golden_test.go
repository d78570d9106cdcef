package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/core"
	"nocmap/internal/search"
	_ "nocmap/internal/search/exact" // registers "exact"
	"nocmap/internal/usecase"
)

// TestGoldenSearchDigests pins the wire summary of the engines byte for
// byte at seed 1 and default options: greedy and exact on D1-D4, and the
// serial annealing engines (anneal, portfolio) on D1 and D2. The digests
// only move when a change alters a search trajectory, so a refactor that
// claims to preserve results must leave them untouched.
func TestGoldenSearchDigests(t *testing.T) {
	want := map[string]string{
		"greedy/D1":    "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		"greedy/D2":    "3603b225247ebb4922d3f94190919322dbfa688d06f436b934a640362decca25",
		"greedy/D3":    "58ae3f3b1dad0ff742b1e3582f3e4e7b18825826ed09af7a43737acd0f2d7663",
		"greedy/D4":    "1dcb75b5b88708fe69c4b7dc01521ef6f8151f22e135c12924725a170adcdd7d",
		"exact/D1":     "032fe9d65bc275b2c5d9304bc7cbd323b589216a05b542cbabff26afa1329359",
		"exact/D2":     "adf1e022eec41fc7a180988a78ba46522c99ffe7ae3087fc49e149575fa344f6",
		"exact/D3":     "d37522ece4c5c099728b3f03b6f1ac9122b90d59f02b3d3d837e885eeaca89be",
		"exact/D4":     "629237b29f1164cb435e908bba596943e7a4b8e5a5440801cab6a8ea0843ad01",
		"anneal/D1":    "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		"anneal/D2":    "3603b225247ebb4922d3f94190919322dbfa688d06f436b934a640362decca25",
		"portfolio/D1": "af86ee34e0251e21c4090d7ee54fa88fb6f2a791ff2e27afe3942f52efeb878e",
		"portfolio/D2": "3603b225247ebb4922d3f94190919322dbfa688d06f436b934a640362decca25",
	}
	for name, digest := range want {
		t.Run(name, func(t *testing.T) {
			engine, design, _ := strings.Cut(name, "/")
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
			if got := hex.EncodeToString(sum[:]); got != digest {
				t.Errorf("summary digest %s, want %s\n%s", got, digest, b)
			}
		})
	}
}
