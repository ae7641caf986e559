package eba

import (
	"repro/internal/core"
)

// Runner executes scenarios against one stack: one at a time (Run), as an
// order-preserving parallel batch (RunBatch), as a stream of outcomes
// over a slice (Stream), or pulled lazily from a Source (StreamFrom,
// RunSource) so unbounded sweeps run at bounded memory. See NewRunner and
// the Source constructors (SourceSO, SourceCrash, SourceRandomSO).
type Runner = core.Runner

// RunnerOption configures NewRunner: WithParallelism, WithSpecCheck,
// WithResultCache, WithBufferReuse.
type RunnerOption = core.RunnerOption

// RunOutcome is one completed (or failed) scenario of a Runner.Stream.
type RunOutcome = core.RunOutcome

// SpecError is the error Runner.Run and Runner.RunBatch return when
// WithSpecCheck finds violations in an otherwise successful run.
type SpecError = core.SpecError

// NewRunner returns a Runner for the stack. With no options it runs
// scenarios one at a time on the sequential engine:
//
//	stack, _ := eba.NewStack("fip", eba.WithN(6), eba.WithT(2))
//	runner := eba.NewRunner(stack,
//		eba.WithParallelism(8),
//		eba.WithSpecCheck(eba.SpecOptions{RoundBound: stack.Horizon()}),
//		eba.WithBufferReuse())
//	results, err := runner.RunBatch(ctx, scenarios)
func NewRunner(stack Stack, opts ...RunnerOption) *Runner { return core.NewRunner(stack, opts...) }

// WithParallelism sets the batch worker count (default 1; k <= 0 means
// one worker per available CPU). Results are independent of k: batches
// and streams preserve scenario order.
func WithParallelism(k int) RunnerOption { return core.WithParallelism(k) }

// WithSpecCheck verifies every completed run against the EBA
// specification of Section 5 (Unique Decision, Agreement, Validity,
// Termination) with the given options.
func WithSpecCheck(opts SpecOptions) RunnerOption { return core.WithSpecCheck(opts) }

// WithResultCache makes the runner answer scenarios it has already
// executed from the cache — same version fingerprint, same scenario —
// and execute only the misses, with bit-identical batches and streams
// at any hit/miss mix. Spec checking still judges cache hits: the
// payload carries everything CheckRun reads.
func WithResultCache(c ResultCache, fingerprint string) RunnerOption {
	return core.WithResultCache(c, fingerprint)
}

// WithBufferReuse gives every batch worker a private set of engine
// buffers reused across its runs, so the per-round message matrices and
// state slices are allocated once per worker instead of once per round.
// Results never alias the buffers, so they stay valid and mutation-safe
// indefinitely; traces are bit-identical with or without reuse. See
// README "Memory model".
func WithBufferReuse() RunnerOption { return core.WithBufferReuse() }
