package core

import (
	"math/rand"
	"reflect"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/topology"
	"nocmap/internal/traffic"
	"nocmap/internal/usecase"
)

// tablesDesigns are the designs the shared-table tests sweep: the paper's
// SoC designs and one member of each synthetic class.
func tablesDesigns(t *testing.T) []*traffic.Design {
	t.Helper()
	var ds []*traffic.Design
	for _, name := range []string{"D1", "D2", "D3", "D4"} {
		d, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	for _, c := range []bench.Class{bench.Spread, bench.Bottleneck} {
		d, err := bench.Synthetic(c.SpecFor(10, 1))
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	return ds
}

// randomSeating seats every active core on a uniformly drawn free NI seat
// of top; the other cores stay unattached. The result always passes
// ValidatePlacement.
func randomSeating(rng *rand.Rand, active []int, numCores int, top *topology.Topology, p Params) (cs, cn []int) {
	cs, cn = make([]int, numCores), make([]int, numCores)
	for c := range cs {
		cs[c], cn[c] = -1, -1
	}
	var seats []int // one entry per core slot, valued by its NI
	for ni := 0; ni < top.NumSwitches()*p.NIsPerSwitch; ni++ {
		for k := 0; k < p.CoresPerNI; k++ {
			seats = append(seats, ni)
		}
	}
	rng.Shuffle(len(seats), func(i, j int) { seats[i], seats[j] = seats[j], seats[i] })
	for i, c := range active {
		cn[c] = seats[i]
		cs[c] = seats[i] / p.NIsPerSwitch
	}
	return cs, cn
}

// TestSharedTablesMatchFreshEvaluator checks that the design tables are
// topology-independent: on every growth size that seats the design, an
// evaluator derived with ForTopology from one built on another fabric
// returns exactly what a fresh NewEvaluator returns — results and errors —
// over seeded random placements.
func TestSharedTablesMatchFreshEvaluator(t *testing.T) {
	p := DefaultParams()
	p.MaxMeshDim = 4 // the sizes every design here seats on, and a few beyond
	for _, d := range tablesDesigns(t) {
		t.Run(d.Name, func(t *testing.T) {
			prep, err := usecase.Prepare(d)
			if err != nil {
				t.Fatal(err)
			}
			var base *Evaluator
			rng := rand.New(rand.NewSource(7))
			feasible, sizes := 0, 0
			for _, dim := range topology.GrowthSequence(p.MaxMeshDim) {
				top, err := p.Topology.ForDim(dim, p.CoresPerSwitch())
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewEvaluator(prep, d.NumCores(), top, p)
				if err != nil {
					t.Fatal(err)
				}
				if top.MaxCores() < len(fresh.active) {
					continue
				}
				if base == nil {
					base = fresh
					continue // derive every later size from this one's tables
				}
				sizes++
				derived, err := base.ForTopology(top)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					cs, cn := randomSeating(rng, fresh.active, d.NumCores(), top, p)
					want, wantErr := fresh.Evaluate(cs, cn)
					got, gotErr := derived.Evaluate(cs, cn)
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
						t.Fatalf("%v placement %d: derived evaluator (%v) differs from fresh (%v)", dim, i, gotErr, wantErr)
					}
					if wantErr == nil {
						feasible++
					}
				}
			}
			if sizes == 0 || feasible == 0 {
				t.Fatalf("sweep compared %d sizes with %d feasible placements; want both > 0", sizes, feasible)
			}
		})
	}
}

// derivedSink keeps derived evaluators on the heap, as real callers do.
var derivedSink *Evaluator

// TestForTopologyAllocs checks that deriving an evaluator for another
// fabric does no per-flow work: it allocates the same constant count on
// D1 as on a 20-use-case Bottleneck design.
func TestForTopologyAllocs(t *testing.T) {
	p := DefaultParams()
	allocs := func(d *traffic.Design) float64 {
		prep, err := usecase.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		small, err := p.Topology.ForDim(topology.Dim{Rows: 2, Cols: 2}, p.CoresPerSwitch())
		if err != nil {
			t.Fatal(err)
		}
		big, err := p.Topology.ForDim(topology.Dim{Rows: 4, Cols: 4}, p.CoresPerSwitch())
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(prep, d.NumCores(), small, p)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if derivedSink, err = ev.ForTopology(big); err != nil {
				t.Fatal(err)
			}
		})
	}
	d1, err := bench.D1()
	if err != nil {
		t.Fatal(err)
	}
	bot, err := bench.Synthetic(bench.Bottleneck.SpecFor(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The evaluator, its route.Table and the table's path map.
	const want = 3
	if a, b := allocs(d1), allocs(bot); a != want || b != want {
		t.Errorf("ForTopology allocates %v times on D1 and %v on %s; want %d on both", a, b, bot.Name, want)
	}
}
