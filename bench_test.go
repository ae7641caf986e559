package eba_test

// One benchmark per experiment table/figure (E1–E14, mirroring DESIGN.md's
// index), plus micro-benchmarks for the load-bearing substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches measure the cost of regenerating each table; the
// micro benches measure the engine, the batch Runner (sequential vs
// parallel, with and without buffer reuse), and the communication-graph
// machinery behind the polynomial-time P_opt.

import (
	"context"
	"math/rand"
	"testing"

	eba "repro"
	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/episteme"
	"repro/internal/exchange"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/model"
)

// buildSystem builds a stack's interpreted system through the model
// checker's public construction path.
func buildSystem(b *testing.B, name string, n, t int) *episteme.System {
	b.Helper()
	st := stack(b, name, n, t)
	sys, err := episteme.BuildSystem(context.Background(), episteme.ContextFor(st), st.Action)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// stack builds a registered stack, failing the benchmark on a bad name.
func stack(b *testing.B, name string, n, t int) eba.Stack {
	b.Helper()
	st, err := eba.NewStack(name, eba.WithN(n), eba.WithT(t))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// --- experiment benches (one per table/figure) ---------------------------

func BenchmarkE1MessageComplexity(b *testing.B) {
	// Per-stack single-run cost at the largest E1 configuration; the bits
	// themselves are asserted in the experiments package.
	n, tf := 16, 4
	pat := adversary.Example71(n, tf, tf+2)
	inits := adversary.UniformInits(n, model.One)
	for _, name := range []string{"min", "basic", "fip"} {
		st := stack(b, name, n, tf)
		b.Run(st.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := st.Run(pat, inits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE2FailureFreeZero(b *testing.B) {
	n, tf := 5, 2
	inits := adversary.UniformInits(n, eba.One)
	inits[2] = eba.Zero
	pat := adversary.FailureFree(n, tf+2)
	st := stack(b, "fip", n, tf)
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(pat, inits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3FailureFreeOnes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E3FailureFreeOnes(); !tb.Pass {
			b.Fatal("E3 failed")
		}
	}
}

func BenchmarkE4Example71(b *testing.B) {
	// The paper's exact Example 7.1 run: n=20, t=10 under P_opt.
	n, tf := 20, 10
	pat := adversary.Example71(n, tf, tf+2)
	inits := adversary.UniformInits(n, model.One)
	st := stack(b, "fip", n, tf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Run(pat, inits)
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxDecisionRound(true) != 3 {
			b.Fatal("Example 7.1 shape lost")
		}
	}
}

func BenchmarkE5TerminationBound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, tf := 6, 2
	st := stack(b, "basic", n, tf)
	for i := 0; i < b.N; i++ {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.45)
		inits := make([]model.Value, n)
		for j := range inits {
			inits[j] = model.Value(rng.Intn(2))
		}
		if _, err := st.Run(pat, inits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6ImplementsMin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := buildSystem(b, "min", 3, 1)
		if ms, err := sys.CheckImplements(context.Background(), episteme.P0, 1); err != nil || len(ms) != 0 {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkE7ImplementsBasic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := buildSystem(b, "basic", 3, 1)
		if ms, err := sys.CheckImplements(context.Background(), episteme.P0, 1); err != nil || len(ms) != 0 {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkE8ImplementsFIP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := buildSystem(b, "fip", 3, 1)
		if ms, err := sys.CheckImplements(context.Background(), episteme.P1, 1); err != nil || len(ms) != 0 {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkE9OptimalityCharacterization(b *testing.B) {
	sys := buildSystem(b, "fip", 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs, err := sys.CheckOptimalityFIP(context.Background(), -1, 1); err != nil || len(vs) != 0 {
			b.Fatal("violation")
		}
	}
}

func BenchmarkE10Safety(b *testing.B) {
	sys := buildSystem(b, "min", 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs, err := sys.CheckSafety(context.Background(), 1); err != nil || len(vs) != 0 {
			b.Fatal("violation")
		}
	}
}

func BenchmarkE11BasicVsMin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E11BasicVsMin(); !tb.Pass {
			b.Fatal("E11 failed")
		}
	}
}

func BenchmarkE12BasicVsFipFaulty(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n, tf := 5, 2
	basic, fip := stack(b, "basic", n, tf), stack(b, "fip", n, tf)
	for i := 0; i < b.N; i++ {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.5)
		inits := make([]model.Value, n)
		for j := range inits {
			inits[j] = model.Value(rng.Intn(2))
		}
		rb, err := basic.Run(pat, inits)
		if err != nil {
			b.Fatal(err)
		}
		rf, err := fip.Run(pat, inits)
		if err != nil {
			b.Fatal(err)
		}
		if rf.MaxDecisionRound(true) > rb.MaxDecisionRound(true) {
			b.Fatal("fip decided later than basic")
		}
	}
}

func BenchmarkE13CrashVsOmission(b *testing.B) {
	// One exhaustive naive-protocol sweep over SO(1), n=3.
	st := stack(b, "naive", 3, 1)
	for i := 0; i < b.N; i++ {
		pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for pat, ok := pats.Next(); ok; pat, ok = pats.Next() {
			p := pat.Clone()
			ivs, err := adversary.NewInitVectors(3)
			if err != nil {
				b.Fatal(err)
			}
			for inits, ok2 := ivs.Next(); ok2; inits, ok2 = ivs.Next() {
				if _, err := st.Run(p, append([]model.Value(nil), inits...)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkE14Synthesize(b *testing.B) {
	c := episteme.Context{Exchange: exchange.NewMin(3), T: 1}
	for i := 0; i < b.N; i++ {
		if _, _, err := episteme.Synthesize(context.Background(), c, episteme.P0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro benches --------------------------------------------------------

func BenchmarkEngineRoundMin(b *testing.B) {
	n, tf := 16, 4
	st := stack(b, "min", n, tf)
	pat := adversary.FailureFree(n, tf+2)
	inits := adversary.UniformInits(n, model.One)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(pat, inits); err != nil {
			b.Fatal(err)
		}
	}
}

// batchScenarios builds a deterministic scenario list for the Runner
// benches.
func batchScenarios(n, tf, count int) []eba.Scenario {
	rng := rand.New(rand.NewSource(7))
	scenarios := make([]eba.Scenario, count)
	for k := range scenarios {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.4)
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		scenarios[k] = eba.Scenario{Pattern: pat, Inits: inits}
	}
	return scenarios
}

// BenchmarkRunnerBatch measures the batch hot path across parallelism
// and buffer-reuse configurations on the same 64-scenario
// workload.
func BenchmarkRunnerBatch(b *testing.B) {
	n, tf := 8, 2
	st := stack(b, "basic", n, tf)
	scenarios := batchScenarios(n, tf, 64)
	ctx := context.Background()
	cases := []struct {
		name string
		opts []eba.RunnerOption
	}{
		{"sequential", nil},
		{"sequential-reuse", []eba.RunnerOption{eba.WithBufferReuse()}},
		{"parallel4-reuse", []eba.RunnerOption{eba.WithParallelism(4), eba.WithBufferReuse()}},
	}
	for _, c := range cases {
		runner := eba.NewRunner(st, c.opts...)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.RunBatch(ctx, scenarios); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineBufferReuse isolates the allocation savings of the
// reusable engine buffers on single runs of the min and fip stacks. CI
// runs it with -benchtime=1x as a smoke test so allocation regressions on
// the hot path fail loudly; the calibrated numbers live in
// BENCH_engine.json (ebabench -bench-engine).
func BenchmarkEngineBufferReuse(b *testing.B) {
	cases := []struct {
		stackName string
		n, tf     int
	}{
		{"min", 16, 4},
		{"fip", 8, 2},
	}
	for _, c := range cases {
		st := stack(b, c.stackName, c.n, c.tf)
		pat := adversary.Example71(c.n, c.tf, c.tf+2)
		inits := adversary.UniformInits(c.n, model.One)
		cfg := st.Config(pat, inits)
		b.Run(c.stackName+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.stackName+"/reused", func(b *testing.B) {
			b.ReportAllocs()
			buf := engine.NewBuffers()
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunBuffered(cfg, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGraphMergeAndKey(b *testing.B) {
	// Build a realistic mid-run graph and measure clone+merge+key, the
	// inner loop of the full-information exchange.
	n, tf := 12, 3
	res, err := stack(b, "fip", n, tf).Run(adversary.Example71(n, tf, tf+2), adversary.UniformInits(n, model.One))
	if err != nil {
		b.Fatal(err)
	}
	st := res.States[tf+1][tf].(*exchange.FIPState)
	g := st.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := g.Clone()
		h.Merge(g)
		_ = h.Key()
	}
}

func BenchmarkRefOwnerAction(b *testing.B) {
	// P_opt's per-round decision cost on a mid-run view at Example 7.1
	// scale.
	n, tf := 20, 10
	res, err := stack(b, "fip", n, tf).Run(adversary.Example71(n, tf, tf+2), adversary.UniformInits(n, model.One))
	if err != nil {
		b.Fatal(err)
	}
	st := res.States[2][tf].(*exchange.FIPState)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := graph.NewRef(tf, st.Graph())
		_ = r.OwnerAction()
	}
}

func BenchmarkBuildSystemMin31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := stack(b, "min", 3, 1)
		if _, err := episteme.BuildSystem(context.Background(), episteme.ContextFor(st), st.Action); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSystem is the model checker's reference build workload
// (γ_fip at n=3, t=1): streaming enumeration through the Runner, the
// memoizing executor, and the interned index. BENCH_episteme.json tracks
// the same quantity across PRs.
func BenchmarkBuildSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eba.BuildSystem(context.Background(), stack(b, "fip", 3, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckImplements is the model checker's reference check
// workload: a cold CheckImplements(P1) — including the concurrent C_N
// condensation builds — on a fresh γ_fip n=3, t=1 system each iteration.
func BenchmarkCheckImplements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := eba.BuildSystem(context.Background(), stack(b, "fip", 3, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ms, err := sys.CheckImplements(context.Background(), eba.ProgramP1, 0)
		if err != nil || len(ms) != 0 {
			b.Fatalf("mismatches=%d err=%v", len(ms), err)
		}
	}
}

func BenchmarkEngineStepFIP(b *testing.B) {
	n, tf := 12, 3
	ex := exchange.NewFIP(n)
	pat := adversary.FailureFree(n, tf+2)
	states := make([]model.State, n)
	acts := make([]model.Action, n)
	for i := 0; i < n; i++ {
		states[i] = ex.Initial(model.AgentID(i), model.One)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Step(ex, pat, 0, states, acts); err != nil {
			b.Fatal(err)
		}
	}
}
