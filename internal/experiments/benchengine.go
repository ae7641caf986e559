package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// EngineBenchEntry is one measured engine workload: a fixed scenario
// sweep driven through engine.RunBuffered on one goroutine over one
// reused engine.Buffers. One "op" is the whole sweep.
type EngineBenchEntry struct {
	// Name identifies the workload, e.g. "fip_n4_t1_sweep".
	Name string `json:"name"`
	// Stack is the registered stack name the sweep runs.
	Stack string `json:"stack"`
	// Runs is the number of scenarios per op.
	Runs int `json:"runs"`
	// NsPerOp, BytesPerOp, and AllocsPerOp are medians over the reps.
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// EngineBench is the perf-trajectory record ebabench emits as
// BENCH_engine.json: the engine hot path's cost on the reference
// workloads, alongside the baseline measured on the same workloads before
// the buffered path existed, so the allocation win is visible (and
// checkable) in one file.
type EngineBench struct {
	// GoMaxProcs records the environment (the workloads themselves are
	// single-goroutine).
	GoMaxProcs int `json:"gomaxprocs"`
	// Reps is the number of repetitions the medians are taken over.
	Reps int `json:"reps"`
	// Entries holds the measured workloads, one per workload.
	Entries []EngineBenchEntry `json:"entries"`
	// Baseline holds reference measurements of the unbuffered engine
	// (exchanges allocating a message slice per agent per round), keyed
	// by workload name.
	Baseline map[string]EngineBenchBaseline `json:"baseline,omitempty"`
}

// EngineBenchBaseline is a reference measurement of the unbuffered
// engine.
type EngineBenchBaseline struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Host describes where the baseline was recorded.
	Host string `json:"host,omitempty"`
}

// engineBaseline is the unbuffered engine (Messages allocating a fresh
// slice per agent per round; Efip heap-cloning one graph per agent per
// round) measured on the reference workloads — median of 5 on a
// single-core container, Go 1.22. Kept here so every BENCH_engine.json
// carries the trajectory's starting point.
var engineBaseline = map[string]EngineBenchBaseline{
	"fip_n4_t1_sweep":   {NsPerOp: 514028556, BytesPerOp: 356082848, AllocsPerOp: 7212128, Host: "single-core container, pre-arena seed"},
	"min_n8_t2_rand512": {NsPerOp: 2608541, BytesPerOp: 3016320, AllocsPerOp: 44556, Host: "single-core container, pre-arena seed"},
}

// engineBenchWorkload is one reference workload definition.
type engineBenchWorkload struct {
	name      string
	stack     string
	n, t      int
	scenarios func() ([]core.Scenario, error)
}

// fipSweepScenarios materializes the exhaustive SO(1) × inits horizon
// sweep at n=4, t=1 — the workload the allocation acceptance bar is
// measured on (2049 patterns × 16 initial vectors = 32784 runs).
func fipSweepScenarios() ([]core.Scenario, error) {
	it, err := adversary.NewSOPatterns(4, 1, 3, adversary.Options{})
	if err != nil {
		return nil, err
	}
	var out []core.Scenario
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		iv, err := adversary.NewInitVectors(4)
		if err != nil {
			return nil, err
		}
		for inits, ok2 := iv.Next(); ok2; inits, ok2 = iv.Next() {
			out = append(out, core.Scenario{
				Pattern: p.Clone(),
				Inits:   append([]model.Value(nil), inits...),
			})
		}
	}
	return out, nil
}

// minRandScenarios materializes 512 seeded random SO(2) scenarios at
// n=8 — the cheap-exchange contrast workload.
func minRandScenarios() ([]core.Scenario, error) {
	rng := rand.New(rand.NewSource(7))
	n, tf := 8, 2
	out := make([]core.Scenario, 512)
	for k := range out {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.4)
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		out[k] = core.Scenario{Pattern: pat, Inits: inits}
	}
	return out, nil
}

// BenchEngine measures the engine's reference workloads, taking medians
// of reps repetitions. The workload runs on one
// goroutine through engine.RunBuffered, so the numbers isolate the
// engine + exchange hot path from Runner scheduling.
func BenchEngine(reps int) (*EngineBench, error) {
	if reps < 1 {
		reps = 1
	}
	bench := &EngineBench{
		GoMaxProcs: goruntime.GOMAXPROCS(0),
		Reps:       reps,
		Baseline:   engineBaseline,
	}
	workloads := []engineBenchWorkload{
		{name: "fip_n4_t1_sweep", stack: "fip", n: 4, t: 1, scenarios: fipSweepScenarios},
		{name: "min_n8_t2_rand512", stack: "min", n: 8, t: 2, scenarios: minRandScenarios},
	}
	for _, w := range workloads {
		st, err := core.NewStack(w.stack, core.WithN(w.n), core.WithT(w.t))
		if err != nil {
			return nil, err
		}
		scenarios, err := w.scenarios()
		if err != nil {
			return nil, err
		}
		ns := make([]float64, 0, reps)
		bs := make([]float64, 0, reps)
		as := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			buf := engine.NewBuffers()
			goruntime.GC()
			var m0, m1 goruntime.MemStats
			goruntime.ReadMemStats(&m0)
			t0 := time.Now()
			for _, sc := range scenarios {
				if _, err := engine.RunBuffered(st.Config(sc.Pattern, sc.Inits), buf); err != nil {
					return nil, err
				}
			}
			elapsed := time.Since(t0)
			goruntime.ReadMemStats(&m1)
			ns = append(ns, float64(elapsed.Nanoseconds()))
			bs = append(bs, float64(m1.TotalAlloc-m0.TotalAlloc))
			as = append(as, float64(m1.Mallocs-m0.Mallocs))
		}
		bench.Entries = append(bench.Entries, EngineBenchEntry{
			Name:        w.name,
			Stack:       w.stack,
			Runs:        len(scenarios),
			NsPerOp:     int64(median(ns)),
			BytesPerOp:  int64(median(bs)),
			AllocsPerOp: int64(median(as)),
		})
	}
	return bench, nil
}

// engineAcceptance names the workloads the buffered engine makes a hard
// allocation claim about, with the required improvement factor over the
// recorded baseline. The claim covers the fip sweep, the workload whose
// per-round broadcasts the buffered path saves most on; the min
// workload is measured for contrast and carries no bar.
var engineAcceptance = map[string]float64{
	"fip_n4_t1_sweep": 2,
}

// CheckAcceptance verifies the recorded allocation claim: every entry
// named in engineAcceptance must show at least the required factor fewer
// allocations per op than the baseline. It returns a descriptive error
// on the first miss.
func (b *EngineBench) CheckAcceptance() error {
	for _, e := range b.Entries {
		minFactor, claimed := engineAcceptance[e.Name]
		base, ok := b.Baseline[e.Name]
		if !claimed || !ok || e.AllocsPerOp == 0 {
			continue
		}
		if got := float64(base.AllocsPerOp) / float64(e.AllocsPerOp); got < minFactor {
			return fmt.Errorf("experiments: %s allocs/op %d vs baseline %d is only %.2fx (< %.1fx)",
				e.Name, e.AllocsPerOp, base.AllocsPerOp, got, minFactor)
		}
	}
	return nil
}

// MarshalIndent renders the record as the JSON ebabench writes to disk.
func (b *EngineBench) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}
