package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/spec"
)

// sweepWorkload streams seed-selected stripes of the unquotiented fip
// n=5, t=1 sweep through Runner.RunShard with the spec check, cold into
// a fresh on-disk result cache and then warm from it: execution, record
// encoding and cache traffic, with no canonicalization and no episteme.
var sweepWorkload = workload{name: "sweep_fip_n5", setupReps: 9, setup: setupSweep}

// sweepStripes is the stripe count the n=5 sweep is cut into; a pass
// runs one stripe of buildRunsN5/sweepStripes records.
const sweepStripes = 32

type sweepInstance struct {
	stack core.Stack
	dir   string
	order []int // stripe indexes in the order passes take them
	seq   int   // cache directories made so far
}

func setupSweep(ctx context.Context, e *env) (instance, error) {
	stack, err := fipStack(5, buildRunsN5)
	if err != nil {
		return nil, err
	}
	return &sweepInstance{
		stack: stack,
		dir:   e.dir,
		order: rand.New(rand.NewSource(e.seed)).Perm(sweepStripes),
	}, nil
}

func (s *sweepInstance) close() error { return nil }

// runner is the sweep runner ebashard builds: spec check on, buffers
// reused, and the given result cache when not nil.
func (s *sweepInstance) runner(store core.ResultCache) *core.Runner {
	opts := []core.RunnerOption{
		core.WithParallelism(0),
		core.WithBufferReuse(),
		core.WithSpecCheck(spec.Options{RoundBound: s.stack.Horizon(), ValidityAllAgents: true}),
	}
	if store != nil {
		opts = append(opts, core.WithResultCache(store, cacheFingerprint))
	}
	return core.NewRunner(s.stack, opts...)
}

// stripeRun is one stripe pass: its streams, timings and cache traffic.
type stripeRun struct {
	index      int
	records    int64
	cold, warm []byte
	coldWall   time.Duration // open cache, RunShard, seal
	warmWall   time.Duration // reopen cache, RunShard, close
	coldSum    *core.ShardSummary
	warmSum    *core.ShardSummary
	cache      cacheTotals
}

// stripe runs stripe i cold into a fresh cache directory and then warm
// from it, each half in spans when p carries a tracer.
func (s *sweepInstance) stripe(ctx context.Context, i int, p passTrace) (*stripeRun, error) {
	s.seq++
	dir := filepath.Join(s.dir, fmt.Sprintf("cache-%d", s.seq))
	defer os.RemoveAll(dir)
	r := &stripeRun{index: i, records: core.StripeSize(buildRunsN5, i, sweepStripes)}

	half := func(name string, out *[]byte, sum **core.ShardSummary) (time.Duration, error) {
		t0 := time.Now()
		var store *cache.Cache
		if err := p.do("cache.open", func() (err error) {
			store, err = cache.Open(dir)
			return err
		}); err != nil {
			return 0, err
		}
		tc := newTimedCache(store)
		var buf bytes.Buffer
		err := p.do(name, func() error {
			src, err := sweepSource(s.stack)
			if err != nil {
				return err
			}
			*sum, err = s.runner(tc).RunShard(ctx, src, i, sweepStripes, &buf)
			return err
		})
		if cerr := p.do("cache.seal", store.Close); err == nil {
			err = cerr
		}
		el := time.Since(t0)
		r.cache.add(tc)
		*out = buf.Bytes()
		return el, err
	}
	var err error
	if r.coldWall, err = half("core.runshard", &r.cold, &r.coldSum); err != nil {
		return nil, fmt.Errorf("cold stripe %d: %w", i, err)
	}
	if r.warmWall, err = half("core.runshard_warm", &r.warm, &r.warmSum); err != nil {
		return nil, fmt.Errorf("warm stripe %d: %w", i, err)
	}
	return r, nil
}

// verify checks both streams of a stripe pass: each verifies end to
// end with the stripe's record count, the cold pass executed every run
// and the warm pass none, and the warm stream is byte-identical to the
// cold one.
func (s *sweepInstance) verify(r *stripeRun, p passTrace) error {
	for _, half := range []struct {
		name   string
		stream []byte
		sum    *core.ShardSummary
	}{{"cold", r.cold, r.coldSum}, {"warm", r.warm, r.warmSum}} {
		var v *core.ShardSummary
		if err := p.do("core.verify_stream", func() (err error) {
			v, err = core.VerifyOutcomeStream(bytes.NewReader(half.stream))
			return err
		}); err != nil {
			return fmt.Errorf("%s stripe %d: %w", half.name, r.index, err)
		}
		if v.Records != r.records || half.sum.Records != r.records {
			return fmt.Errorf("%s stripe %d: %d records (runner said %d), want %d", half.name, r.index, v.Records, half.sum.Records, r.records)
		}
		if v.Digest != half.sum.Digest {
			return fmt.Errorf("%s stripe %d: stream digest %s, runner said %s", half.name, r.index, v.Digest, half.sum.Digest)
		}
	}
	switch {
	case r.coldSum.Executed != r.records:
		return fmt.Errorf("cold stripe %d executed %d of %d runs", r.index, r.coldSum.Executed, r.records)
	case r.warmSum.CacheHits != r.records:
		return fmt.Errorf("warm stripe %d restored %d of %d runs from the cache", r.index, r.warmSum.CacheHits, r.records)
	case r.warmSum.Digest != r.coldSum.Digest || !bytes.Equal(r.warm, r.cold):
		return fmt.Errorf("warm stripe %d differs from the cold one (digest %s vs %s)", r.index, r.warmSum.Digest, r.coldSum.Digest)
	}
	return nil
}

// measure runs stripe passes in seed order until d has passed.
func (s *sweepInstance) measure(ctx context.Context, d time.Duration) (*measured, error) {
	m := &measured{tally: tally{base: "stripes"}, runsNote: "records streamed by the cold pass, median over stripes"}
	var warmRate, coldMS, warmMS []float64
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		i := s.order[k%len(s.order)]
		r, err := s.stripe(ctx, i, passTrace{})
		if err == nil {
			err = s.verify(r, passTrace{})
		}
		m.record(err)
		if err != nil {
			m.fail(err)
			m.opMS = append(m.opMS, inf)
			continue
		}
		m.runsPerS = append(m.runsPerS, float64(r.records)/r.coldWall.Seconds())
		warmRate = append(warmRate, float64(r.records)/r.warmWall.Seconds())
		coldMS = append(coldMS, ms(r.coldWall))
		warmMS = append(warmMS, ms(r.warmWall))
		m.opMS = append(m.opMS, ms(r.coldWall+r.warmWall))
	}
	if len(warmRate) > 0 {
		note := fmt.Sprintf("median of %d stripes of %d records", len(warmRate), core.StripeSize(buildRunsN5, 0, sweepStripes))
		m.report = append(m.report,
			reportLine{name: "warm_runs_per_s", value: median(warmRate), unit: "1/s", note: note},
			reportLine{name: "cold_pass_ms", value: median(coldMS), unit: "ms", note: note},
			reportLine{name: "warm_pass_ms", value: median(warmMS), unit: "ms", note: note})
	}
	return m, nil
}

// pass runs the first seed-selected stripe through the engine alone
// (RunSource, no encoding, no cache), then as a cold and a warm stripe
// pass, verifying every stream.
func (s *sweepInstance) pass(ctx context.Context, p passTrace) (layerSample, tally, error) {
	t := tally{base: "stripes"}
	m := layerSample{}
	i := s.order[0]
	var runs int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.do("engine.execute", func() error {
		src, err := sweepSource(s.stack)
		if err != nil {
			return err
		}
		stripe, err := core.Stride(src, i, sweepStripes)
		if err != nil {
			return err
		}
		res, err := s.runner(nil).RunSource(ctx, stripe)
		runs = len(res)
		return err
	}); err != nil {
		return nil, t, fmt.Errorf("engine.execute: %w", err)
	}
	runtime.ReadMemStats(&after)
	if runs > 0 {
		m["engine.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / float64(runs)
		m["engine.bytes_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}

	r, err := s.stripe(ctx, i, p)
	if err != nil {
		return nil, t, err
	}
	verr := s.verify(r, p)
	if verr == nil && int64(runs) != r.records {
		verr = fmt.Errorf("RunSource ran %d of stripe %d's %d scenarios", runs, i, r.records)
	}
	t.record(verr)
	m["core.records"] = float64(r.records)
	m["core.stream_bytes"] = float64(len(r.cold))
	r.cache.layer(m)
	return m, t, nil
}
