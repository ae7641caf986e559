package main

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/source"
)

// cacheFingerprint is the build tag folded into every result cache key.
const cacheFingerprint = "benchmark"

// fipStack returns the fip stack at n agents, t=1, and its scenario
// count, enumerated in full so set-up confirms the input size.
func fipStack(n int, want int64) (core.Stack, error) {
	stack, err := core.NewStack("fip", core.WithN(n), core.WithT(1))
	if err != nil {
		return core.Stack{}, err
	}
	src, err := sweepSource(stack)
	if err != nil {
		return core.Stack{}, err
	}
	var count int64
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		count++
	}
	if count != want {
		return core.Stack{}, fmt.Errorf("fip n=%d t=1 enumerates %d scenarios, want %d", n, count, want)
	}
	return stack, nil
}

// sweepSource is the stack's exhaustive SO(t) sweep, as ebashard and the
// model checker enumerate it.
func sweepSource(stack core.Stack) (core.Source, error) {
	pats, err := source.SO(stack.N, stack.T, stack.Horizon(), adversary.Options{})
	if err != nil {
		return nil, err
	}
	return source.CrossInits(pats, stack.N)
}
