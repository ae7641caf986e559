// The result cache's core face: content-addressed keys for runs and the
// CachingExecutor that consults a ResultCache before executing.
//
// Keys are "<version>/<kind>/<scenario>": the version digest pins the
// stack's semantic identity (exchange and action protocol by registered
// name, n, t, horizon) together with a build fingerprint, the kind
// separates sweep outcomes ("run") from the episteme checker's interned
// rows ("sys") and whole stripe indexes ("idx"), and the scenario
// digest pins the (pattern, inits) input.
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
	// CacheKindRun marks a sweep outcome (CachedRun without state keys).
	CacheKindRun = "run"
	// CacheKindSys marks an episteme row (CachedRun with the interned
	// state key of every (time, agent) slot).
	CacheKindSys = "sys"
	// CacheKindIndex marks a whole serialized episteme shard index: the
	// digest slot fingerprints the stripe parameters instead of a
	// scenario, and the payload is the WriteShardIndex serialization. A
	// hit skips the stripe's enumeration entirely — per-scenario "sys"
	// entries cannot, because probing them still walks (and for
	// quotiented sweeps, canonicalizes) every scenario.
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

// CachedRun is the cache payload of one completed run: its RunLedger —
// the scenario restated (so a misfiled entry is detected on read), the
// observable outcome, and the per-round actions spec checking needs. For
// episteme entries StateKeys[m*n+i] additionally carries agent i's
// canonical state key at time m — the interning input — while sweep
// entries omit it. Full traces are never cached.
type CachedRun struct {
	RunLedger
	StateKeys []string `json:"stateKeys,omitempty"`
}

// NewCachedRun encodes a completed run. withStates selects the episteme
// form: the canonical key of every state in the trace, slot-major
// (slot = m*n + i).
func NewCachedRun(res *engine.Result, withStates bool) (*CachedRun, error) {
	led, err := NewRunLedger(res)
	if err != nil {
		return nil, fmt.Errorf("core: encoding cache payload: %w", err)
	}
	cr := &CachedRun{RunLedger: led}
	if withStates {
		if len(res.States) != res.Horizon+1 {
			return nil, fmt.Errorf("core: caching a trace-free result as an episteme entry")
		}
		cr.StateKeys = make([]string, (res.Horizon+1)*res.N)
		for m := 0; m <= res.Horizon; m++ {
			for i := 0; i < res.N; i++ {
				cr.StateKeys[m*res.N+i] = res.States[m][i].Key()
			}
		}
	}
	return cr, nil
}

// Matches reports whether the payload answers the given scenario with a
// well-formed outcome: the restated scenario must equal the asked one
// and the ledger must pass Check (withStates additionally demands a full
// slot-major state-key table). Anything else is treated as a miss.
func (cr *CachedRun) Matches(patternText string, inits []model.Value, n, horizon int, withStates bool) bool {
	if cr.Pattern != patternText || len(cr.Inits) != len(inits) {
		return false
	}
	for i, v := range inits {
		if cr.Inits[i] != int(v) {
			return false
		}
	}
	if cr.Check(n, horizon) != nil {
		return false
	}
	return !withStates || len(cr.StateKeys) == (horizon+1)*n
}

// Restore synthesizes the engine.Result a fresh execution of cfg would
// have produced, minus the state trace (see RunLedger.Restore).
func (cr *CachedRun) Restore(cfg engine.Config) *engine.Result {
	return cr.RunLedger.Restore(cfg.Pattern, cfg.Horizon)
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
		var cr CachedRun
		text, terr := cfg.Pattern.MarshalText()
		if terr == nil && json.Unmarshal(payload, &cr) == nil &&
			cr.Matches(string(text), cfg.Inits, cfg.Pattern.N(), cfg.Horizon, false) {
			x.hits.Add(1)
			return cr.Restore(cfg), nil
		}
		// Decodes but does not answer this scenario (or does not decode):
		// fall through, recompute, and overwrite the bad entry.
	}
	res, err := x.inner.Execute(cfg, buf)
	if err != nil {
		return nil, err
	}
	x.misses.Add(1)
	if cr, cerr := NewCachedRun(res, false); cerr == nil {
		if payload, jerr := json.Marshal(cr); jerr == nil {
			x.cache.Put(key, payload)
		}
	}
	return res, nil
}
