// The result cache's core face: content-addressed keys for runs and the
// CachingExecutor that consults a ResultCache before executing.
//
// Keys are "<version>/<kind>/<scenario>": the version digest pins the
// stack's semantic identity (exchange and action protocol by registered
// name, n, t, horizon) together with a build fingerprint, the kind
// separates sweep outcomes ("run", one RunLedger per scenario) from the
// episteme checker's whole stripe indexes ("idx"), and the digest slot
// pins the input: the (pattern, inits) scenario for "run", the stripe
// parameters for "idx".
// Any change to protocol code, configuration, or input lands on a
// different key and misses — the differential tests pin this. Payloads
// are digest-verified by the store (internal/cache); on top of that the
// executor validates the decoded payload against the scenario it is
// answering, so a corrupt or misfiled entry degrades to a recomputation,
// never to a wrong result. Spec checking happens OUTSIDE the cache: the
// payload carries the per-round actions, so spec.CheckRun judges cache
// hits exactly as it judges fresh runs, and spec options stay out of the
// key.

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/model"
)

// ResultCache is the store the runner consults: Get misses on any
// failure (the caller recomputes), Put is best-effort persistence.
// internal/cache's Cache, Client, and Tiered all implement it.
type ResultCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// cacheSchema is folded into every version digest; bump it when the
// payload encoding changes incompatibly.
const cacheSchema = "eba-cache-v1"

// Cache payload kinds.
const (
	// CacheKindRun marks a sweep outcome: the run's RunLedger.
	CacheKindRun = "run"
	// CacheKindIndex marks a whole serialized episteme shard index: the
	// digest slot fingerprints the stripe parameters instead of a
	// scenario, and the payload is the WriteShardIndex serialization. A
	// hit skips the stripe's enumeration entirely. A cached BuildSystem
	// is one such entry (stripe 0 of 1).
	CacheKindIndex = "idx"
)

// VersionDigest fingerprints the stack's semantic identity for
// cache-key derivation: the payload schema, the exchange and action
// protocol by their registered names, n, t, the execution horizon, and
// the build fingerprint (internal/cache.Fingerprint or a caller-chosen
// tag). Two stacks share a digest exactly when a scenario must produce
// byte-identical outcomes under both.
func (s Stack) VersionDigest(fingerprint string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|ex=%s|act=%s|n=%d|t=%d|h=%d|bin=%s",
		cacheSchema, s.Exchange.Name(), s.Action.Name(), s.N, s.T, s.Horizon(), fingerprint)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// ScenarioDigest fingerprints one (pattern, inits) input. Quotient
// weights are deliberately excluded: the run's outcome does not depend
// on how many sweep scenarios the representative stands for, so
// quotiented and plain sweeps share entries.
func ScenarioDigest(pat *model.Pattern, inits []model.Value) (string, error) {
	text, err := pat.MarshalText()
	if err != nil {
		return "", fmt.Errorf("core: encoding pattern for cache key: %w", err)
	}
	h := sha256.New()
	h.Write(text)
	h.Write([]byte{'|'})
	for _, v := range inits {
		fmt.Fprintf(h, "%d,", int(v))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16]), nil
}

// CacheKey assembles the full cache key. The format matches
// internal/cache.Key, so keys built here route through the shared cache
// server unchanged.
func CacheKey(versionDigest, kind, scenarioDigest string) string {
	return versionDigest + "/" + kind + "/" + scenarioDigest
}

// Matches reports whether a cached ledger answers the given scenario
// with a well-formed outcome: the restated scenario must equal the asked
// one and the ledger must pass Check. Anything else is treated as a miss.
func (l *RunLedger) Matches(patternText string, inits []model.Value, n, horizon int) bool {
	if l.Pattern != patternText || len(l.Inits) != len(inits) {
		return false
	}
	for i, v := range inits {
		if l.Inits[i] != int(v) {
			return false
		}
	}
	return l.Check(n, horizon) == nil
}

// CacheCounters snapshots a CachingExecutor's traffic.
type CacheCounters struct {
	// Hits is the number of runs answered from the cache.
	Hits int64
	// Misses is the number of runs that executed (and were stored).
	Misses int64
}

// CachingExecutor wraps an engine.Executor with a ResultCache lookup
// per scenario. A hit restores the run without executing; a miss
// executes on the wrapped substrate and stores the outcome best-effort
// (a full disk or unreachable server never fails the run). Restored
// runs are bit-identical to executed ones in everything a sweep or spec
// check observes, so caching — like sharding — can never change what a
// sweep reports.
type CachingExecutor struct {
	inner   engine.Executor
	cache   ResultCache
	version string
	hits    atomic.Int64
	misses  atomic.Int64
}

// NewCachingExecutor wraps the executor; version is the stack's
// VersionDigest.
func NewCachingExecutor(inner engine.Executor, cache ResultCache, version string) *CachingExecutor {
	return &CachingExecutor{inner: inner, cache: cache, version: version}
}

// Counters snapshots the executor's hit/miss traffic.
func (x *CachingExecutor) Counters() CacheCounters {
	return CacheCounters{Hits: x.hits.Load(), Misses: x.misses.Load()}
}

// Execute consults the cache, falling back to the wrapped executor.
func (x *CachingExecutor) Execute(cfg engine.Config, buf *engine.Buffers) (*engine.Result, error) {
	scDigest, err := ScenarioDigest(cfg.Pattern, cfg.Inits)
	if err != nil {
		// An unencodable pattern also fails execution; let the substrate
		// report it.
		return x.inner.Execute(cfg, buf)
	}
	key := CacheKey(x.version, CacheKindRun, scDigest)
	if payload, ok := x.cache.Get(key); ok {
		var led RunLedger
		text, terr := cfg.Pattern.MarshalText()
		if terr == nil && json.Unmarshal(payload, &led) == nil &&
			led.Matches(string(text), cfg.Inits, cfg.Pattern.N(), cfg.Horizon) {
			x.hits.Add(1)
			return led.Restore(cfg.Pattern, cfg.Horizon), nil
		}
		// Decodes but does not answer this scenario (or does not decode):
		// fall through, recompute, and overwrite the bad entry.
	}
	res, err := x.inner.Execute(cfg, buf)
	if err != nil {
		return nil, err
	}
	x.misses.Add(1)
	if led, lerr := NewRunLedger(res); lerr == nil {
		if payload, jerr := json.Marshal(&led); jerr == nil {
			x.cache.Put(key, payload)
		}
	}
	return res, nil
}
