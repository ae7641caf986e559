// Source-driven execution: StreamFrom pulls scenarios lazily from a
// Source and fans them out over the Runner's worker pool, so exhaustive
// and randomized sweeps run at O(window) memory instead of materializing
// a scenario slice. Stream and RunBatch are thin layers over the same
// machinery.

package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine"
)

// Source is a pull-style stream of scenarios, the lazy counterpart of a
// []Scenario. Next returns the next scenario, or false when the source is
// exhausted. Count returns the total number of scenarios the source will
// produce and whether that total is known (unbounded or unrepresentable
// sources report false). Sources need not be safe for concurrent use: the
// Runner pulls from a single goroutine.
//
// internal/source provides generators (exhaustive SO/crash sweeps, seeded
// random scenarios) and combinators (CrossInits, Limit, Filter,
// FromSlice) producing Sources.
type Source interface {
	Next() (Scenario, bool)
	Count() (int64, bool)
}

// ErrorSource is an optional Source extension for sources that can fail
// mid-stream — a shard reader whose pipe breaks, a decoder hitting
// corrupt input. Such a source ends the stream by returning false from
// Next and reports why through Err (nil means ordinary exhaustion).
// StreamFrom checks Err when the source ends: a non-nil error cancels the
// stream's work with that error as the context cause (the fail-fast
// semantics RunBatch and RunSource already have) and the stream's final
// outcome carries it — Index -1, Err set — so consumers learn the cause
// even in completion-order mode.
type ErrorSource interface {
	Source
	Err() error
}

// FromScenarios adapts an eager scenario slice to the Source interface —
// the bridge from the batch world into the streaming one (Stream is
// StreamFrom over it).
func FromScenarios(scenarios []Scenario) Source {
	return &sliceSource{scenarios: scenarios}
}

// sliceSource adapts an eager scenario slice to the Source interface.
type sliceSource struct {
	scenarios []Scenario
	next      int
}

func (s *sliceSource) Next() (Scenario, bool) {
	if s.next >= len(s.scenarios) {
		return Scenario{}, false
	}
	sc := s.scenarios[s.next]
	s.next++
	return sc, true
}

func (s *sliceSource) Count() (int64, bool) { return int64(len(s.scenarios)), true }

// StreamOption configures StreamFrom.
type StreamOption func(*streamConfig)

type streamConfig struct {
	window          int
	completionOrder bool
}

// WithWindow bounds the reordering window of an ordered stream: at most k
// scenarios are in flight — dispatched to a worker but not yet emitted —
// at any moment, so the re-sequencing buffer holds at most k outcomes no
// matter how long the head scenario runs. k <= 0 selects the default
// window of twice the worker count. A window smaller than the worker
// count leaves workers idle. Completion-order streams ignore the window
// (they buffer nothing).
func WithWindow(k int) StreamOption {
	return func(c *streamConfig) { c.window = k }
}

// WithCompletionOrder makes StreamFrom emit outcomes as workers finish
// them instead of re-sequencing into scenario order. Every outcome is
// emitted exactly once and carries its scenario Index for correlation;
// nothing is buffered, so a slow scenario delays only itself. Use it for
// latency-sensitive consumers that aggregate rather than correspond
// run-by-run.
func WithCompletionOrder() StreamOption {
	return func(c *streamConfig) { c.completionOrder = true }
}

// Stream executes the scenarios over the worker pool and emits outcomes
// on the returned channel in scenario order. The channel closes when
// every outcome has been emitted or the context is cancelled; the
// consumer must drain the channel or cancel the context to release the
// workers. Unlike RunBatch, a per-scenario error does not stop the
// stream: the outcome carries it and later scenarios still run.
func (r *Runner) Stream(ctx context.Context, scenarios []Scenario) <-chan RunOutcome {
	return r.StreamFrom(ctx, &sliceSource{scenarios: scenarios})
}

// StreamFrom pulls scenarios lazily from the source, executes them over
// the worker pool, and emits outcomes on the returned channel — by
// default in scenario order through a bounded reordering window (see
// WithWindow), or in completion order with WithCompletionOrder. Ordered
// streams are bit-identical to the eager Stream/RunBatch paths over the
// same scenarios; memory stays bounded by the window regardless of the
// source's size, so exhaustive sweeps can run without materializing.
// The channel closes when the source is exhausted and every outcome has
// been emitted, or when the context is cancelled; the consumer must drain
// the channel or cancel the context to release the workers. A
// per-scenario error does not stop the stream.
func (r *Runner) StreamFrom(ctx context.Context, src Source, opts ...StreamOption) <-chan RunOutcome {
	cfg := streamConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	out := make(chan RunOutcome)
	go func() {
		defer close(out)
		// sctx carries stream-internal failure: when the source itself
		// fails mid-stream (ErrorSource), outstanding work is cancelled
		// with the source's error as the cause, and outcomes produced
		// after the failure carry it — context.Cause, never a bare
		// context.Canceled, matching the Runner's fail-fast semantics.
		sctx, fail := context.WithCancelCause(ctx)
		defer fail(nil)
		workers := r.parallelism
		if c, ok := src.Count(); ok && int64(workers) > c {
			workers = int(c)
		}
		if workers < 1 {
			workers = 1
		}
		window := cfg.window
		if window <= 0 {
			window = 2 * workers
		}

		type job struct {
			idx int
			sc  Scenario
		}
		jobs := make(chan job)
		results := make(chan RunOutcome, workers)
		// tokens bounds the in-flight scenarios of an ordered stream: the
		// dispatcher acquires before pulling from the source, the
		// re-sequencer releases after emitting.
		var tokens chan struct{}
		if !cfg.completionOrder {
			tokens = make(chan struct{}, window)
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf *engine.Buffers
				if r.bufferReuse {
					buf = engine.NewBuffers()
				}
				for jb := range jobs {
					select {
					case results <- r.runOne(sctx, jb.idx, jb.sc, buf):
					case <-sctx.Done():
						return
					}
				}
			}()
		}
		go func() {
			defer close(jobs)
			for idx := 0; ; idx++ {
				if tokens != nil {
					select {
					case tokens <- struct{}{}:
					case <-sctx.Done():
						return
					}
				}
				sc, ok := src.Next()
				if !ok {
					// A source that failed mid-stream (rather than running
					// dry) cancels outstanding work with its error as the
					// cause, so in-flight outcomes carry it.
					if es, isErrSource := src.(ErrorSource); isErrSource {
						if err := es.Err(); err != nil {
							fail(err)
						}
					}
					return
				}
				select {
				case jobs <- job{idx: idx, sc: sc}:
				case <-sctx.Done():
					return
				}
			}
		}()
		go func() {
			wg.Wait()
			close(results)
		}()

		// emitCause surfaces a stream-internal failure (a failed source) as
		// the stream's final outcome: Index -1, Err the cancellation cause.
		// External cancellation is the caller's own context; they hold its
		// cause already, so nothing is appended for it.
		emitCause := func() {
			if cause := context.Cause(sctx); cause != nil && ctx.Err() == nil {
				select {
				case out <- RunOutcome{Index: -1, Err: cause}:
				case <-ctx.Done():
				}
			}
		}

		if cfg.completionOrder {
			for oc := range results {
				select {
				case out <- oc:
				case <-ctx.Done():
					return
				}
			}
			emitCause()
			return
		}

		// Re-sequence: workers finish out of order, the stream emits in
		// scenario order. The token bound keeps pending at window size.
		pending := make(map[int]RunOutcome, window)
		next := 0
		for oc := range results {
			pending[oc.Index] = oc
			for {
				o, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case out <- o:
				case <-ctx.Done():
					return
				}
				<-tokens
				next++
			}
		}
		emitCause()
	}()
	return out
}

// RunSource executes every scenario the source produces over the worker
// pool and returns the results in scenario order, like RunBatch without
// the scenario slice: result k corresponds to the source's k-th scenario.
// The first execution error, specification violation, or context
// cancellation aborts the run: outstanding work is cancelled with that
// first error as the context cause, so in-flight scenarios stop promptly
// and nothing further is pulled from the source.
func (r *Runner) RunSource(ctx context.Context, src Source) ([]*engine.Result, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var out []*engine.Result
	if c, ok := src.Count(); ok && c >= 0 {
		// Cap the preallocation: a representable count can still exceed
		// what make can allocate; append grows past the cap as needed.
		if c > 1<<20 {
			c = 1 << 20
		}
		out = make([]*engine.Result, 0, c)
	}
	for oc := range r.StreamFrom(ctx, src) {
		if oc.Err != nil {
			cancel(oc.Err)
			return nil, oc.Err
		}
		out = append(out, oc.Result)
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if c, ok := src.Count(); ok && int64(len(out)) != c {
		return nil, fmt.Errorf("runner: source run ended after %d of %d scenarios", len(out), c)
	}
	return out, nil
}
