// Command ebabench regenerates every experiment table of the
// reproduction (DESIGN.md lists the index; EXPERIMENTS.md records the
// outputs): the message-complexity and decision-time claims of Section 8,
// Example 7.1, the termination bound, the machine-checked theorems, and
// the crash-vs-omission ablation. Randomized scenario sweeps fan out over
// the library's batch Runner; -parallel controls the worker count and
// never changes the numbers (batches are deterministic and
// order-preserving).
//
// With -bench-episteme it instead measures the model checker's reference
// workloads (BuildSystem + CheckImplements on γ_fip at n=3,t=1 and
// n=4,t=1, plus the symmetry-quotiented n=4,t=1 and exhaustive n=5,t=1
// builds) and writes the perf-trajectory record — including the
// pre-sharding baseline — to the given JSON file.
//
// With -bench-engine it measures the execution engine's reference
// workloads (the exhaustive fip n=4,t=1 horizon sweep and a min n=8,t=2
// random batch) over reused engine buffers, writes the record —
// including the unbuffered baseline — to the given JSON file, and fails
// unless the fip sweep allocates at least 2× fewer times per op than
// that baseline.
//
// With -gate baseline.json:current.json (repeatable) it instead runs the
// CI bench-regression gate: the current record fails against the
// committed baseline on more than 25% allocs_per_op growth (engine
// records) or a more-than-2× build_seconds regression (episteme
// records) — strict on allocations, tolerant on wall time.
//
// Usage:
//
//	ebabench                  # everything, including the model checks
//	ebabench -skip-slow       # simulation experiments only
//	ebabench -trials 2000     # more random trials
//	ebabench -parallel 4      # 4 workers for sweeps and model checking
//	ebabench -bench-episteme BENCH_episteme.json
//	ebabench -bench-engine BENCH_engine.json
//	ebabench -gate BENCH_engine.json:BENCH_engine.ci.json \
//	         -gate BENCH_episteme.json:BENCH_episteme.ci.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// gatePairs collects repeated -gate baseline:current flags.
type gatePairs []string

func (g *gatePairs) String() string { return strings.Join(*g, ",") }

func (g *gatePairs) Set(s string) error {
	if !strings.Contains(s, ":") {
		return fmt.Errorf("gate spec %q is not of the form baseline.json:current.json", s)
	}
	*g = append(*g, s)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ebabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ebabench", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", experiments.DefaultConfig.Seed, "random seed")
		trials    = fs.Int("trials", experiments.DefaultConfig.Trials, "random trials per experiment")
		parallel  = fs.Int("parallel", 0, "workers for the scenario sweeps and model checks (0 = one per CPU)")
		skipSlow  = fs.Bool("skip-slow", false, "skip the exhaustive model-checking experiments")
		benchOut  = fs.String("bench-episteme", "", "measure the model checker's reference workloads and write the perf record to this JSON file (skips the experiment tables)")
		engineOut = fs.String("bench-engine", "", "measure the engine's reference workloads and write the perf record to this JSON file (skips the experiment tables)")
		serveOut  = fs.String("bench-serve", "", "measure the serving layer's mixed-load throughput and write the perf record to this JSON file (skips the experiment tables)")
		benchReps = fs.Int("bench-reps", 3, "repetitions per workload for -bench-episteme / -bench-engine / -bench-serve (medians are reported)")
	)
	var gates gatePairs
	fs.Var(&gates, "gate", "bench-regression gate, as baseline.json:current.json (repeatable; skips everything else)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if len(gates) > 0 {
		return runGates(gates)
	}
	if *benchOut != "" {
		return benchEpisteme(*benchOut, *parallel, *benchReps)
	}
	if *engineOut != "" {
		return benchEngine(*engineOut, *benchReps)
	}
	if *serveOut != "" {
		return benchServe(*serveOut, *benchReps)
	}

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Parallelism: *parallel, SkipSlow: *skipSlow}
	fmt.Printf("Reproduction harness — Alpturer, Halpern, van der Meyden (PODC 2023)\n")
	fmt.Printf("seed=%d trials=%d parallel=%d skip-slow=%v\n\n", cfg.Seed, cfg.Trials, cfg.Parallelism, cfg.SkipSlow)

	failures := 0
	start := time.Now()
	for _, gen := range experiments.Generators(cfg) {
		t0 := time.Now()
		tb := gen()
		fmt.Print(tb.Render())
		fmt.Printf("  (%.2fs)\n\n", time.Since(t0).Seconds())
		if !tb.Pass {
			failures++
		}
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	fmt.Println("all experiments reproduce the paper's claims")
	return nil
}

// runGates runs the bench-regression gate over every baseline:current
// pair, printing each verdict; any violation fails the run.
func runGates(gates gatePairs) error {
	failures := 0
	for _, pair := range gates {
		basePath, currPath, _ := strings.Cut(pair, ":")
		base, err := os.ReadFile(basePath)
		if err != nil {
			return err
		}
		curr, err := os.ReadFile(currPath)
		if err != nil {
			return err
		}
		violations, err := experiments.GateBench(base, curr)
		if err != nil {
			return fmt.Errorf("gate %s: %w", pair, err)
		}
		if len(violations) == 0 {
			fmt.Printf("gate %s vs %s: OK\n", currPath, basePath)
			continue
		}
		failures += len(violations)
		fmt.Printf("gate %s vs %s: FAILED\n", currPath, basePath)
		for _, v := range violations {
			fmt.Println("  " + v)
		}
	}
	if failures > 0 {
		return fmt.Errorf("bench gate: %d regression(s); commit a refreshed baseline if intentional, or apply the bench-regression override label (see README)", failures)
	}
	return nil
}

// benchEngine measures the engine's reference workloads, writes the
// perf-trajectory record, and enforces the allocation acceptance bar
// (≥ 2× fewer allocs/op than the unbuffered baseline).
func benchEngine(path string, reps int) error {
	fmt.Printf("benchmarking the engine hot path (reps=%d)...\n", reps)
	bench, err := experiments.BenchEngine(reps)
	if err != nil {
		return err
	}
	for _, e := range bench.Entries {
		line := fmt.Sprintf("  %-18s runs=%d ns/op=%d B/op=%d allocs/op=%d",
			e.Name, e.Runs, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
		if base, ok := bench.Baseline[e.Name]; ok && e.AllocsPerOp > 0 {
			line += fmt.Sprintf("  (%.1fx fewer allocs than baseline)",
				float64(base.AllocsPerOp)/float64(e.AllocsPerOp))
		}
		fmt.Println(line)
	}
	data, err := bench.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return bench.CheckAcceptance()
}

// benchServe measures the serving layer's mixed-load throughput against
// in-process ebaserve instances and writes the perf-trajectory record.
// Any verification failure in the load is an error here, not just a
// gated number.
func benchServe(path string, reps int) error {
	fmt.Printf("benchmarking the serving layer (reps=%d)...\n", reps)
	bench, err := experiments.BenchServe(reps)
	if err != nil {
		return err
	}
	for _, e := range bench.Entries {
		if e.Errors != 0 {
			return fmt.Errorf("%s: %d failed requests — served responses must verify", e.Name, e.Errors)
		}
		fmt.Printf("  %s: %d requests ×%d  %.0f req/s  p50=%.1fms p99=%.1fms  records=%d retries=%d\n",
			e.Name, e.Requests, e.Concurrency, e.RequestsPerSecond, e.P50Millis, e.P99Millis, e.Records, e.Retried429)
	}
	data, err := bench.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchEpisteme measures the model checker's reference workloads and
// writes the perf-trajectory record.
func benchEpisteme(path string, parallel, reps int) error {
	fmt.Printf("benchmarking the model checker (parallel=%d, reps=%d)...\n", parallel, reps)
	bench, err := experiments.BenchEpisteme(parallel, reps)
	if err != nil {
		return err
	}
	for _, e := range bench.Entries {
		if e.Mismatches != 0 {
			return fmt.Errorf("%s: %d mismatches — Theorem A.21 should machine-check", e.Name, e.Mismatches)
		}
		line := fmt.Sprintf("  %s: runs=%d build=%.4fs check=%.4fs", e.Name, e.Runs, e.BuildSeconds, e.CheckImplementsSeconds)
		if e.Quotient && e.RepRuns > 0 {
			line += fmt.Sprintf("  (quotient: %d representatives executed, %.1fx fewer)",
				e.RepRuns, float64(e.Runs)/float64(e.RepRuns))
		}
		if base, ok := bench.Baseline[e.Name]; ok {
			now := e.BuildSeconds + e.CheckImplementsSeconds
			was := base.BuildSeconds + base.CheckImplementsSeconds
			if now > 0 {
				line += fmt.Sprintf("  (%.2fx vs pre-sharding baseline)", was/now)
			}
		}
		fmt.Println(line)
	}
	data, err := bench.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
