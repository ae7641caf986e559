// The Runner: the one execution front-end. A Runner binds a Stack to an
// engine.Executor (the sequential engine, or a wrapper standing in for
// it) and executes scenarios one at a time (Run), as an
// order-preserving parallel batch (RunBatch), or as a stream of outcomes
// (Stream over slices, StreamFrom/RunSource over lazy Sources — see
// stream.go). Batches fan out over a worker pool of WithParallelism(k)
// workers; each worker owns its own engine.Buffers when WithBufferReuse
// is on, so the engine's per-round matrices are allocated once per
// worker rather than once per round. Because every run is deterministic,
// parallel batches are bit-for-bit identical to sequential ones — a
// property the tests enforce.

package core

import (
	"context"
	"fmt"
	goruntime "runtime"

	"repro/internal/engine"
	"repro/internal/spec"
)

// Runner executes scenarios against one stack.
type Runner struct {
	stack       Stack
	exec        engine.Executor
	parallelism int
	specOpts    *spec.Options
	bufferReuse bool
	cache       ResultCache
	fingerprint string
}

// RunnerOption configures NewRunner.
type RunnerOption func(*Runner)

// WithExecutor substitutes the execution substrate (default
// engine.Sequential{}). It is internal plumbing for executors that stand
// in for the engine — the result cache, the episteme checker's
// memoizing executor, test gates — and must return identical results.
func WithExecutor(x engine.Executor) RunnerOption {
	return func(r *Runner) { r.exec = x }
}

// WithParallelism sets the batch worker count (default 1, i.e. batches
// run sequentially). k <= 0 means one worker per available CPU. Results
// are independent of k: RunBatch and Stream preserve scenario order.
func WithParallelism(k int) RunnerOption {
	return func(r *Runner) {
		if k <= 0 {
			k = goruntime.GOMAXPROCS(0)
		}
		r.parallelism = k
	}
}

// WithSpecCheck verifies every completed run against the EBA
// specification of Section 5 with the given options. Violations are
// reported on the outcome; Run and RunBatch turn them into a *SpecError.
func WithSpecCheck(opts spec.Options) RunnerOption {
	return func(r *Runner) { r.specOpts = &opts }
}

// WithBufferReuse gives every batch worker a private engine.Buffers
// reused across its runs: the engine's per-round message matrices and
// rolling state slices are recycled. A returned Result never aliases the
// buffers, so results outlive the workers safely; traces are
// bit-identical with or without reuse. This applies to Run, RunBatch,
// Stream, StreamFrom, and RunSource alike.
func WithBufferReuse() RunnerOption {
	return func(r *Runner) { r.bufferReuse = true }
}

// WithResultCache consults the cache before every execution: a hit
// restores the run without executing, a miss executes and stores the
// outcome. The fingerprint identifies the executing code (usually
// internal/cache.Fingerprint()) and is folded into the cache key
// together with the stack's full semantic identity, so a different
// build, protocol, or configuration can never be served a stale entry.
// Spec checking is unaffected: hits are judged exactly like fresh runs.
func WithResultCache(c ResultCache, fingerprint string) RunnerOption {
	return func(r *Runner) {
		r.cache = c
		r.fingerprint = fingerprint
	}
}

// NewRunner returns a Runner for the stack. With no options it runs
// scenarios one at a time on the sequential engine.
func NewRunner(stack Stack, opts ...RunnerOption) *Runner {
	r := &Runner{stack: stack, exec: engine.Sequential{}, parallelism: 1}
	for _, opt := range opts {
		opt(r)
	}
	// The cache wraps whatever substrate the options chose, so it
	// composes with WithExecutor in either option order.
	if r.cache != nil {
		r.exec = NewCachingExecutor(r.exec, r.cache, r.stack.VersionDigest(r.fingerprint))
	}
	return r
}

// Stack returns the stack the runner executes.
func (r *Runner) Stack() Stack { return r.stack }

// RunOutcome is one completed (or failed) scenario of a Stream.
type RunOutcome struct {
	// Index is the scenario's position in the input slice.
	Index int
	// Scenario is the input that was run.
	Scenario Scenario
	// Result is the completed run; nil when Err is set.
	Result *engine.Result
	// Violations holds the EBA specification breaches found when
	// WithSpecCheck is on (also wrapped into Err as a *SpecError).
	Violations []spec.Violation
	// Err reports an execution error, a specification violation, or the
	// batch context's cancellation cause.
	Err error
}

// SpecError is the error Run and RunBatch return when WithSpecCheck finds
// violations in an otherwise successful run.
type SpecError struct {
	// Index is the offending scenario's position in the batch.
	Index int
	// Violations holds the specification breaches.
	Violations []spec.Violation
}

// Error describes the first violation.
func (e *SpecError) Error() string {
	return fmt.Sprintf("runner: scenario %d violates the EBA specification (%d violation(s), first: %v)",
		e.Index, len(e.Violations), e.Violations[0])
}

// Run executes one scenario.
func (r *Runner) Run(ctx context.Context, sc Scenario) (*engine.Result, error) {
	var buf *engine.Buffers
	if r.bufferReuse {
		buf = engine.NewBuffers()
	}
	out := r.runOne(ctx, 0, sc, buf)
	if out.Err != nil {
		return nil, out.Err
	}
	return out.Result, nil
}

// RunBatch executes the scenarios over the runner's worker pool and
// returns their results in scenario order — result k corresponds to
// scenario k, so result sets of different stacks over the same scenario
// list correspond run-by-run (the correspondence the paper's dominance
// order is defined over). The first execution error, specification
// violation, or context cancellation aborts the batch: outstanding work
// is cancelled with that first error as the context cause, so workers
// stop promptly instead of draining the remaining scenarios.
func (r *Runner) RunBatch(ctx context.Context, scenarios []Scenario) ([]*engine.Result, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	out := make([]*engine.Result, len(scenarios))
	done := 0
	for oc := range r.Stream(ctx, scenarios) {
		if oc.Err != nil {
			cancel(oc.Err)
			return nil, oc.Err
		}
		out[oc.Index] = oc.Result
		done++
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if done != len(scenarios) {
		return nil, fmt.Errorf("runner: batch ended after %d of %d scenarios", done, len(scenarios))
	}
	return out, nil
}

// runOne executes one scenario, translating context cancellation,
// execution errors, and specification violations into the outcome.
func (r *Runner) runOne(ctx context.Context, idx int, sc Scenario, buf *engine.Buffers) RunOutcome {
	oc := RunOutcome{Index: idx, Scenario: sc}
	if ctx.Err() != nil {
		oc.Err = context.Cause(ctx)
		return oc
	}
	res, err := r.exec.Execute(r.stack.Config(sc.Pattern, sc.Inits), buf)
	if err != nil {
		oc.Err = fmt.Errorf("runner: scenario %d: %w", idx, err)
		return oc
	}
	oc.Result = res
	if r.specOpts != nil {
		if vs := spec.CheckRun(res, *r.specOpts); len(vs) > 0 {
			oc.Violations = vs
			oc.Err = &SpecError{Index: idx, Violations: vs}
		}
	}
	return oc
}
