package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/source"
)

// buildWorkload is the quotiented model-checker build of fip n=5, t=1
// plus the P1 implementation check: symmetry canonicalization and
// quotient expansion do most of the work.
var buildWorkload = workload{name: "build_fip_n5", setupReps: 9, setup: setupBuild}

const (
	buildRunsN5 = 655392
	buildRepsN5 = 7758
)

type buildInstance struct {
	stack core.Stack
	ec    episteme.Context
}

func setupBuild(ctx context.Context, e *env) (instance, error) {
	stack, err := fipStack(5, buildRunsN5)
	if err != nil {
		return nil, err
	}
	return &buildInstance{stack: stack, ec: episteme.ContextFor(stack)}, nil
}

func (b *buildInstance) close() error { return nil }

// measure times BuildSystem(WithQuotient) followed by CheckImplements(P1).
func (b *buildInstance) measure(ctx context.Context, d time.Duration) (*measured, error) {
	m := &measured{tally: tally{base: "builds"}, runsNote: "runs built and checked, 655,392 per build"}
	start := time.Now()
	for m.attempted == 0 || time.Since(start) < d {
		t0 := time.Now()
		err := b.buildAndCheck(ctx)
		el := time.Since(t0)
		m.record(err)
		if err != nil {
			m.fail(err)
			m.opMS = append(m.opMS, inf)
			continue
		}
		m.opMS = append(m.opMS, ms(el))
		m.runsPerS = append(m.runsPerS, buildRunsN5/el.Seconds())
	}
	return m, nil
}

func (b *buildInstance) buildAndCheck(ctx context.Context) error {
	sys, err := episteme.BuildSystem(ctx, b.ec, b.stack.Action, episteme.WithQuotient())
	if err != nil {
		return err
	}
	if len(sys.Runs) != buildRunsN5 {
		return fmt.Errorf("built %d runs, want %d", len(sys.Runs), buildRunsN5)
	}
	mismatches, err := sys.CheckImplements(ctx, episteme.P1, maxViolations)
	if err != nil {
		return err
	}
	if len(mismatches) != 0 {
		return fmt.Errorf("%d P1 mismatches, first %s", len(mismatches), mismatches[0])
	}
	return nil
}

// pass splits the build into its layers: the scenario enumeration and
// the symmetry quotient alone (drained without executing), then the
// representative index build, merge, quotient expansion, and the P1
// check, with the live heap of the expanded System between them.
func (b *buildInstance) pass(ctx context.Context, p passTrace) (layerSample, tally, error) {
	t := tally{base: "builds"}
	m := layerSample{}
	var (
		scenarios, reps, weighted int64
		idx                       *episteme.ShardIndex
		sys                       *episteme.System
		mismatches                []episteme.Mismatch
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"source.enumerate", func() error {
			src, err := sweepSource(b.stack)
			if err != nil {
				return err
			}
			for _, ok := src.Next(); ok; _, ok = src.Next() {
				scenarios++
			}
			return nil
		}},
		{"source.quotient", func() error {
			src, err := sweepSource(b.stack)
			if err != nil {
				return err
			}
			q := source.Quotient(src)
			for sc, ok := q.Next(); ok; sc, ok = q.Next() {
				reps++
				weighted += sc.EffectiveWeight()
			}
			return nil
		}},
		{"episteme.build_index", func() (err error) {
			idx, err = episteme.BuildShardIndex(ctx, b.ec, b.stack.Action, 0, 1, episteme.WithQuotient())
			return err
		}},
		{"episteme.merge", func() (err error) {
			sys, err = episteme.MergeSystems(ctx, []*episteme.ShardIndex{idx})
			idx = nil
			return err
		}},
		{"episteme.expand", func() (err error) {
			sys, err = episteme.ExpandQuotient(ctx, sys, b.ec)
			return err
		}},
		{"episteme.live_heap", func() error {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			m["episteme.live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
			return nil
		}},
		{"episteme.check_implements", func() (err error) {
			mismatches, err = sys.CheckImplements(ctx, episteme.P1, maxViolations)
			return err
		}},
	}
	for _, s := range steps {
		if err := p.do(s.name, s.fn); err != nil {
			return nil, t, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	m["source.scenarios"] = float64(scenarios)
	m["source.representatives"] = float64(reps)
	if reps > 0 {
		m["source.reduction_ratio"] = float64(scenarios) / float64(reps)
	}
	var err error
	switch {
	case scenarios != buildRunsN5 || weighted != buildRunsN5:
		err = fmt.Errorf("enumerated %d scenarios with orbit weight %d, want %d", scenarios, weighted, buildRunsN5)
	case reps != buildRepsN5:
		err = fmt.Errorf("quotient kept %d representatives, want %d", reps, buildRepsN5)
	case len(sys.Runs) != buildRunsN5:
		err = fmt.Errorf("expanded to %d runs, want %d", len(sys.Runs), buildRunsN5)
	case len(mismatches) != 0:
		err = fmt.Errorf("%d P1 mismatches, first %s", len(mismatches), mismatches[0])
	}
	t.record(err)
	return m, t, nil
}
