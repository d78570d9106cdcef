package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"nocmap/internal/service"
	"nocmap/pkg/noc"
)

// workload is one named traffic mix against the /v1 service. Every field
// that shapes a request is fixed here, so a workload name plus a seed
// determines every byte the service receives.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also records
	// why each workload exists.
	name string
	// engine and mode are the MapRequest fields every request carries.
	engine string
	stream bool
	// iters and nodes, when positive, set the MapRequest iters / nodes.
	iters, nodes int
	// hitDesigns > 0 makes the workload replay that many pre-warmed designs
	// instead of sending a distinct design per request.
	hitDesigns int
	// rate sizes a run: it sends rate*seconds requests (at least
	// minSamples), so the work of a run is fixed by its arguments, not by
	// how fast the host is. It is near the requests a two-core host
	// completes per second, except on anneal-stream, where it is higher so
	// that a run averages over enough distinct designs.
	rate float64
}

var workloads = []workload{
	{
		name:   "greedy-miss",
		engine: "greedy",
		rate:   65,
	},
	{
		name:       "hit-replay",
		engine:     "greedy",
		hitDesigns: 32,
		rate:       350,
	},
	{
		name:   "anneal-stream",
		engine: "anneal",
		stream: true,
		iters:  400,
		rate:   11,
	},
	{
		name:   "exact-bound",
		engine: "exact",
		nodes:  5000,
		rate:   28,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// minSamples keeps at least ten samples beyond p90 in every timed quantity.
const minSamples = 100

// Use-case counts of the synthetic designs span [minUseCases, maxUseCases].
// A generator round holds one design of every count per class, in seeded
// order, so every seed sends the same mix of design sizes and only the
// traffic inside the designs changes with the seed.
const (
	minUseCases = 2
	maxUseCases = 20
	roundStrata = maxUseCases - minUseCases + 1
	warmUps     = 6
)

// hotSetSeed fixes hit-replay's 32 designs: the run seed only orders the
// replay, so the mean quality of the replayed results (a property of the
// hot set, not of the hit path) does not change between runs.
const hotSetSeed = 1

var classes = []string{"Sp", "Bot"}

// designSpec names one generated design: a paper benchmark (fixed) or a
// synthetic family member.
type designSpec struct {
	fixed    string
	class    string
	useCases int
	seed     int64
}

func (s designSpec) build() (*noc.Design, error) {
	if s.fixed != "" {
		return noc.Benchmark(s.fixed)
	}
	return noc.Synthetic(s.class, s.useCases, s.seed)
}

// stratum returns the use-case count range [lo, hi] of stratum i of n over
// [minUseCases, maxUseCases].
func stratum(i, n int) (lo, hi int) {
	span := maxUseCases - minUseCases + 1
	return minUseCases + i*span/n, minUseCases + (i+1)*span/n - 1
}

// generator draws distinct synthetic design specs from one seeded stream.
type generator struct {
	rng  *rand.Rand
	seen map[designSpec]bool
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), seen: make(map[designSpec]bool)}
}

// round returns one design per (class, stratum) pair of n strata, in seeded
// order, none repeating a design this generator returned before.
func (g *generator) round(n int) []designSpec {
	var out []designSpec
	for _, c := range classes {
		for i := 0; i < n; i++ {
			lo, hi := stratum(i, n)
			for {
				s := designSpec{class: c, useCases: lo + g.rng.Intn(hi-lo+1), seed: g.rng.Int63()}
				if !g.seen[s] {
					g.seen[s] = true
					out = append(out, s)
					break
				}
			}
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// plan is the complete request schedule of one run: every body is encoded
// before the first timed request.
type plan struct {
	// warm are untimed requests sent before the timed phase (for
	// hit-replay: the designs whose results the timed phase replays).
	warm [][]byte
	// timed are the timed request bodies in send order; for hit-replay they
	// alias warm entries.
	timed [][]byte
	// hitOf[i] is the warm index timed request i replays (hit-replay only).
	hitOf []int
}

// requests returns the timed request count of a run of the given length.
func (w workload) requests(seconds int) int {
	return max(minSamples, int(math.Ceil(w.rate*float64(seconds))))
}

// makePlan generates and encodes the requests of one run.
func makePlan(w workload, seed int64, seconds int) (*plan, error) {
	n := w.requests(seconds)
	p := &plan{}
	if w.hitDesigns > 0 {
		specs := newGenerator(hotSetSeed).round(w.hitDesigns / len(classes))
		for _, s := range specs {
			body, err := w.encode(s)
			if err != nil {
				return nil, err
			}
			p.warm = append(p.warm, body)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for len(p.hitOf) < n {
			p.hitOf = append(p.hitOf, rng.Perm(len(p.warm))...)
		}
		for _, i := range p.hitOf {
			p.timed = append(p.timed, p.warm[i])
		}
		return p, nil
	}
	// Warm-up designs come from their own stream so they never collide with
	// (and pre-warm the cache for) a timed design.
	warm := newGenerator(seed ^ 0x3a7e).round(roundStrata)[:warmUps]
	for _, s := range warm {
		body, err := w.encode(s)
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, body)
	}
	g := newGenerator(seed)
	specs := []designSpec{{fixed: "D1"}, {fixed: "D2"}, {fixed: "D3"}, {fixed: "D4"}}
	for len(specs) < n {
		specs = append(specs, g.round(roundStrata)...)
	}
	for _, s := range specs {
		body, err := w.encode(s)
		if err != nil {
			return nil, err
		}
		p.timed = append(p.timed, body)
	}
	return p, nil
}

// encode renders the /v1/map request body for one design.
func (w workload) encode(s designSpec) ([]byte, error) {
	d, err := s.build()
	if err != nil {
		return nil, fmt.Errorf("generate %+v: %w", s, err)
	}
	var design bytes.Buffer
	if err := d.WriteJSON(&design); err != nil {
		return nil, fmt.Errorf("encode design %s: %w", d.Name, err)
	}
	mr := service.MapRequest{Design: design.Bytes(), Engine: w.engine}
	if w.stream {
		mr.Mode = "stream"
	}
	if w.iters > 0 {
		mr.Iters = &w.iters
	}
	if w.nodes > 0 {
		mr.Nodes = &w.nodes
	}
	return json.Marshal(mr)
}

// digest is the SHA-256 over a sequence of byte strings, each
// length-prefixed so that concatenation boundaries count.
func digest(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requestDigest covers every byte the run sends to /v1/map, warm-up included.
func (p *plan) requestDigest() string {
	return digest(append(append([][]byte(nil), p.warm...), p.timed...))
}
