package main

import (
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// timedCache wraps a result cache and counts its Get and Put calls and
// the time spent inside them. Busy time is summed over the calling
// workers, so under parallel callers it can exceed wall time.
type timedCache struct {
	inner            core.ResultCache
	gets, hits, puts atomic.Int64
	getNS, putNS     atomic.Int64
}

func newTimedCache(inner core.ResultCache) *timedCache { return &timedCache{inner: inner} }

func (c *timedCache) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	val, ok := c.inner.Get(key)
	c.getNS.Add(int64(time.Since(t0)))
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return val, ok
}

func (c *timedCache) Put(key string, val []byte) error {
	t0 := time.Now()
	err := c.inner.Put(key, val)
	c.putNS.Add(int64(time.Since(t0)))
	c.puts.Add(1)
	return err
}

// Stats forwards the wrapped store's counters, so a server holding the
// wrapper still reports the result cache on its /metrics.
func (c *timedCache) Stats() cache.Stats {
	if s, ok := c.inner.(interface{ Stats() cache.Stats }); ok {
		return s.Stats()
	}
	return cache.Stats{}
}

// cacheTotals is the wrapper's traffic plus the wrapped store's byte
// and reject counters, summed over the stores a pass used.
type cacheTotals struct {
	gets, hits, puts int64
	get, put         time.Duration
	stats            cache.Stats
}

func (t *cacheTotals) add(c *timedCache) {
	t.gets += c.gets.Load()
	t.hits += c.hits.Load()
	t.puts += c.puts.Load()
	t.get += time.Duration(c.getNS.Load())
	t.put += time.Duration(c.putNS.Load())
	t.stats = t.stats.Add(c.Stats())
}

// layer reports the totals as cache.* per-layer metrics.
func (t *cacheTotals) layer(m layerSample) {
	m.time("cache.get_s", t.get)
	m.time("cache.put_s", t.put)
	m["cache.gets"] = float64(t.gets)
	m["cache.puts"] = float64(t.puts)
	if t.gets > 0 {
		m["cache.hit_ratio"] = float64(t.hits) / float64(t.gets)
	}
	m["cache.bytes_written"] = float64(t.stats.BytesWritten)
	m["cache.bytes_served"] = float64(t.stats.BytesServed)
	m["cache.rejects"] = float64(t.stats.Rejects)
}
