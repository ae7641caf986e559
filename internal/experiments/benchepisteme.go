package experiments

import (
	"context"
	"encoding/json"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/action"
	"repro/internal/adversary"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/exchange"
	"repro/internal/source"
)

// EpistemeBenchEntry is one measured model-checking workload: building
// the exhaustive γ_fip system and machine-checking Theorem A.21 on it.
type EpistemeBenchEntry struct {
	// Name identifies the workload, e.g. "fip_n3_t1".
	Name string `json:"name"`
	// N and T are the context parameters.
	N int `json:"n"`
	T int `json:"t"`
	// Quotient reports whether the system was built through the agent-
	// permutation symmetry quotient (episteme.WithQuotient): only one
	// representative per orbit is executed, then the full system is
	// expanded back by relabeling, so Runs still counts the whole sweep.
	Quotient bool `json:"quotient,omitempty"`
	// Runs is the size of the enumerated system.
	Runs int `json:"runs"`
	// RepRuns is the number of orbit representatives actually executed
	// when Quotient is set (0 otherwise); Runs/RepRuns is the symmetry
	// reduction factor.
	RepRuns int `json:"rep_runs,omitempty"`
	// BuildSeconds is the median BuildSystem wall-clock. For the warm-
	// cache workload it is the median warm rebuild, and ColdBuildSeconds
	// records the cache-filling cold build it is gated against.
	BuildSeconds float64 `json:"build_seconds"`
	// ColdBuildSeconds is the cold (cache-filling) build wall-clock of
	// the warm-cache workload; 0 for the uncached workloads. The gate
	// requires BuildSeconds ≤ WarmColdLimit × ColdBuildSeconds.
	ColdBuildSeconds float64 `json:"cold_build_seconds,omitempty"`
	// CheckImplementsSeconds is the median cold CheckImplements(P1)
	// wall-clock (including the C_N condensation builds).
	CheckImplementsSeconds float64 `json:"check_implements_seconds"`
	// Mismatches must be 0: the benchmark doubles as a theorem check.
	Mismatches int `json:"mismatches"`
}

// EpistemeBench is the perf trajectory record ebabench emits as
// BENCH_episteme.json: the model checker's wall-clock on the reference
// workloads, alongside the pre-refactor baseline measured on the same
// class of workload so the speedup is visible in one file.
type EpistemeBench struct {
	// GoMaxProcs is the worker budget the measurements ran with.
	GoMaxProcs int `json:"gomaxprocs"`
	// Parallelism is the requested checker parallelism (0 = one worker
	// per CPU).
	Parallelism int `json:"parallelism"`
	// Reps is the number of repetitions the medians are taken over.
	Reps int `json:"reps"`
	// Entries holds the measured workloads.
	Entries []EpistemeBenchEntry `json:"entries"`
	// Baseline holds reference wall-clocks of the pre-sharding checker
	// (PR 2's sequential enumeration and string-keyed index), keyed by
	// entry name, for trajectory comparison. Populated by the harness
	// that recorded them; empty when no baseline is known.
	Baseline map[string]EpistemeBenchBaseline `json:"baseline,omitempty"`
}

// EpistemeBenchBaseline is a reference measurement of the pre-sharding
// checker.
type EpistemeBenchBaseline struct {
	BuildSeconds           float64 `json:"build_seconds"`
	CheckImplementsSeconds float64 `json:"check_implements_seconds"`
	// Host describes where the baseline was recorded.
	Host string `json:"host,omitempty"`
}

// BenchEpisteme measures BuildSystem + CheckImplements on the fip
// contexts n=3,t=1 and n=4,t=1 (the reference workloads of the model
// checker's perf trajectory), taking the median of reps repetitions,
// plus two symmetry-quotiented workloads: n=4,t=1 built through
// episteme.WithQuotient (the direct full-vs-quotient comparison) and
// the exhaustive n=5,t=1 sweep, which only the quotient makes a
// practical bench entry (655,392 runs from 7,758 executed
// representatives). Every repetition builds a fresh system, so the
// check includes the C_N condensation cost; quotiented builds include
// the expansion back to the full system, so their Runs — and their
// verdicts — match the unquotiented sweep's exactly.
func BenchEpisteme(parallelism, reps int) (*EpistemeBench, error) {
	if reps < 1 {
		reps = 1
	}
	bench := &EpistemeBench{
		GoMaxProcs:  goruntime.GOMAXPROCS(0),
		Parallelism: parallelism,
		Reps:        reps,
		Baseline:    epistemeBaseline,
	}
	ctx := context.Background()
	workloads := []struct {
		n, t     int
		quotient bool
	}{
		{3, 1, false},
		{4, 1, false},
		{4, 1, true},
		{5, 1, true},
	}
	for _, w := range workloads {
		entry := EpistemeBenchEntry{
			Name:     benchName(w.n, w.t, w.quotient),
			N:        w.n,
			T:        w.t,
			Quotient: w.quotient,
		}
		buildOpts := []episteme.Option{episteme.WithParallelism(parallelism)}
		if w.quotient {
			buildOpts = append(buildOpts, episteme.WithQuotient())
			repCount, err := quotientRepCount(w.n, w.t)
			if err != nil {
				return nil, err
			}
			entry.RepRuns = repCount
		}
		builds := make([]float64, 0, reps)
		checks := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			sys, err := episteme.BuildSystem(ctx,
				episteme.Context{Exchange: exchange.NewFIP(w.n), T: w.t},
				action.NewOpt(w.t), buildOpts...)
			if err != nil {
				return nil, err
			}
			builds = append(builds, time.Since(t0).Seconds())
			t0 = time.Now()
			ms, err := sys.CheckImplements(ctx, episteme.P1, 0)
			if err != nil {
				return nil, err
			}
			checks = append(checks, time.Since(t0).Seconds())
			entry.Runs = len(sys.Runs)
			entry.Mismatches = len(ms)
		}
		entry.BuildSeconds = median(builds)
		entry.CheckImplementsSeconds = median(checks)
		bench.Entries = append(bench.Entries, entry)
	}
	warm, err := benchWarmCache(ctx, parallelism, reps)
	if err != nil {
		return nil, err
	}
	bench.Entries = append(bench.Entries, *warm)
	return bench, nil
}

// benchWarmCache measures the result cache's effect on the checker: the
// quotiented n=5,t=1 shard index (7758 orbit representatives — the
// index build, not the ExpandQuotient step, is what the cache can skip)
// built cold into a fresh on-disk cache, then rebuilt warm from it. The
// warm rebuild is answered by the stripe-index cache entry, skipping
// the sweep's enumeration and canonicalization outright (canonicalizing
// 655,392 scenarios down to their representatives dominates the cold
// build). The entry's BuildSeconds is the median warm rebuild and
// ColdBuildSeconds the cold build; the gate holds warm at WarmColdLimit
// of cold.
func benchWarmCache(ctx context.Context, parallelism, reps int) (*EpistemeBenchEntry, error) {
	const n, t = 5, 1
	dir, err := os.MkdirTemp("", "eba-bench-cache-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	c := episteme.Context{Exchange: exchange.NewFIP(n), T: t}
	act := action.NewOpt(t)
	opts := []episteme.Option{
		episteme.WithParallelism(parallelism),
		episteme.WithQuotient(),
		episteme.WithCache(store, "bench"),
	}
	entry := &EpistemeBenchEntry{
		Name:     benchName(n, t, true) + "_warm",
		N:        n,
		T:        t,
		Quotient: true,
	}
	t0 := time.Now()
	idx, err := episteme.BuildShardIndex(ctx, c, act, 0, 1, opts...)
	if err != nil {
		return nil, err
	}
	entry.ColdBuildSeconds = time.Since(t0).Seconds()
	entry.Runs = len(idx.Runs)
	entry.RepRuns = len(idx.Runs)
	warms := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 = time.Now()
		if _, err := episteme.BuildShardIndex(ctx, c, act, 0, 1, opts...); err != nil {
			return nil, err
		}
		warms = append(warms, time.Since(t0).Seconds())
	}
	entry.BuildSeconds = median(warms)
	return entry, nil
}

func benchName(n, t int, quotient bool) string {
	name := "fip_n" + strconv.Itoa(n) + "_t" + strconv.Itoa(t)
	if quotient {
		name += "_quotient"
	}
	return name
}

// quotientRepCount enumerates the quotiented sweep without executing it
// and reports how many orbit representatives survive — the number of
// runs a quotiented build actually executes.
func quotientRepCount(n, t int) (int, error) {
	pats, err := source.SO(n, t, t+2, adversary.Options{})
	if err != nil {
		return 0, err
	}
	src, err := source.CrossInits(pats, n)
	if err != nil {
		return 0, err
	}
	q := source.Quotient(src)
	count := 0
	for _, ok := q.Next(); ok; _, ok = q.Next() {
		count++
	}
	if es, ok := q.(core.ErrorSource); ok {
		if err := es.Err(); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// epistemeBaseline is the pre-sharding checker (PR 2's private worker
// pool, fully materialized configuration slice, and string-keyed index)
// measured on the reference workloads immediately before the PR 3
// refactor — median of 3 on a single-core container, Go 1.25. Kept here
// so every BENCH_episteme.json carries the trajectory's starting point.
var epistemeBaseline = map[string]EpistemeBenchBaseline{
	"fip_n3_t1": {BuildSeconds: 0.0256, CheckImplementsSeconds: 0.0099, Host: "single-core container, pre-refactor seed"},
	"fip_n4_t1": {BuildSeconds: 1.3382, CheckImplementsSeconds: 0.4456, Host: "single-core container, pre-refactor seed"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// MarshalIndent renders the record as the JSON ebabench writes to disk.
func (b *EpistemeBench) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}
