package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/fabric"
)

// checkWorkload is the verdict block of `ebashard -check -quotient
// -safety` for fip n=4, t=1: the checkers do nearly all of the work.
var checkWorkload = workload{name: "check_fip_n4", setupReps: 9, setup: setupCheck}

//go:embed golden/check_fip_n4.txt
var goldenCheckN4 []byte

const checkRunsN4 = 32784

type checkInstance struct {
	stack core.Stack
	ec    episteme.Context
}

func setupCheck(ctx context.Context, e *env) (instance, error) {
	stack, err := fipStack(4, checkRunsN4)
	if err != nil {
		return nil, err
	}
	return &checkInstance{stack: stack, ec: episteme.ContextFor(stack)}, nil
}

func (c *checkInstance) close() error { return nil }

// measure times whole verdict blocks through the public path ebashard
// takes: BuildShardIndex(0/1, quotient) → MergeSystems → WriteVerdicts.
func (c *checkInstance) measure(ctx context.Context, d time.Duration) (*measured, error) {
	m := &measured{tally: tally{base: "verdict blocks"}, runsNote: "runs checked, 32,784 per verdict block"}
	start := time.Now()
	for m.attempted == 0 || time.Since(start) < d {
		t0 := time.Now()
		block, err := c.verdictBlock(ctx)
		el := time.Since(t0)
		if err == nil && !bytes.Equal(block, goldenCheckN4) {
			err = fmt.Errorf("verdict block differs from golden/check_fip_n4.txt:\n%s", block)
		}
		m.record(err)
		if err != nil {
			m.fail(err)
			m.opMS = append(m.opMS, inf)
			continue
		}
		m.opMS = append(m.opMS, ms(el))
		m.runsPerS = append(m.runsPerS, checkRunsN4/el.Seconds())
	}
	return m, nil
}

func (c *checkInstance) verdictBlock(ctx context.Context) ([]byte, error) {
	idx, err := episteme.BuildShardIndex(ctx, c.ec, c.stack.Action, 0, 1, episteme.WithQuotient())
	if err != nil {
		return nil, err
	}
	sys, err := episteme.MergeSystems(ctx, []*episteme.ShardIndex{idx})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = fabric.WriteVerdicts(ctx, &buf, sys, c.stack.Name, fabric.VerdictOptions{Safety: true, Optimality: true})
	return buf.Bytes(), err
}

// pass makes the same verdict block one layer call at a time, with the
// C_N condensation of every time slice forced before the checks, and
// compares it with the golden.
func (c *checkInstance) pass(ctx context.Context, p passTrace) (layerSample, tally, error) {
	t := tally{base: "verdict blocks"}
	var (
		idx        *episteme.ShardIndex
		sys        *episteme.System
		mismatches []episteme.Mismatch
		safety     []string
		optimality []string
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"episteme.build_index", func() (err error) {
			idx, err = episteme.BuildShardIndex(ctx, c.ec, c.stack.Action, 0, 1, episteme.WithQuotient())
			return err
		}},
		{"episteme.merge", func() (err error) {
			sys, err = episteme.MergeSystems(ctx, []*episteme.ShardIndex{idx})
			return err
		}},
		{"episteme.expand", func() (err error) {
			sys, err = episteme.ExpandQuotient(ctx, sys, c.ec)
			return err
		}},
		{"episteme.cn", func() error {
			for m := 0; m <= sys.Horizon; m++ {
				sys.CNReachable(episteme.Point{Run: 0, Time: m})
			}
			return nil
		}},
		{"episteme.check_implements", func() (err error) {
			mismatches, err = sys.CheckImplements(ctx, episteme.P1, maxViolations)
			return err
		}},
		{"episteme.check_safety", func() (err error) {
			safety, err = sys.CheckSafety(ctx, maxViolations)
			return err
		}},
		{"episteme.check_optimality", func() (err error) {
			optimality, err = sys.CheckOptimalityFIP(ctx, -1, maxViolations)
			return err
		}},
	}
	for _, s := range steps {
		if err := p.do(s.name, s.fn); err != nil {
			return nil, t, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	var block bytes.Buffer
	writeVerdictBlock(&block, c.stack.Name, sys, mismatches, safety, optimality)
	var err error
	if !bytes.Equal(block.Bytes(), goldenCheckN4) {
		err = fmt.Errorf("layer-by-layer verdict block differs from golden/check_fip_n4.txt:\n%s", block.Bytes())
	}
	t.record(err)
	return layerSample{}, t, nil
}

// maxViolations is the per-check violation cap WriteVerdicts applies by
// default.
const maxViolations = 5

// writeVerdictBlock formats check results the way fabric.WriteVerdicts
// does for a fip stack with safety and optimality on; the golden
// comparison catches any drift between the two.
func writeVerdictBlock(w io.Writer, stack string, sys *episteme.System, mismatches []episteme.Mismatch, safety, optimality []string) {
	fmt.Fprintf(w, "stack: %s (n=%d, t=%d, horizon=%d)\n", stack, sys.N, sys.T, sys.Horizon)
	fmt.Fprintf(w, "runs: %d\n", len(sys.Runs))
	if len(mismatches) == 0 {
		fmt.Fprintf(w, "implements %v: OK\n", episteme.P1)
	} else {
		fmt.Fprintf(w, "implements %v: FAILED\n", episteme.P1)
		for _, m := range mismatches {
			fmt.Fprintf(w, "  %s\n", m)
		}
	}
	if len(safety) == 0 {
		fmt.Fprintf(w, "safety: OK\n")
	} else {
		fmt.Fprintf(w, "safety: violated\n")
		for _, v := range safety {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
	if len(optimality) == 0 {
		fmt.Fprintf(w, "optimality: OK\n")
	} else {
		fmt.Fprintf(w, "optimality: FAILED\n")
		for _, v := range optimality {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
}
