package episteme

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/action"
	"repro/internal/core"
)

// testStore is an in-memory core.ResultCache counting its traffic.
type testStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	hits int
	puts int
}

func newTestStore() *testStore { return &testStore{m: make(map[string][]byte)} }

func (s *testStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	if ok {
		s.hits++
	}
	return v, ok
}

func (s *testStore) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = append([]byte(nil), val...)
	return nil
}

func (s *testStore) counts() (gets, hits, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.hits, s.puts
}

// systemVerdicts folds a system's index fingerprint and every checker
// verdict into one comparable string.
func systemVerdicts(t *testing.T, sys *System) string {
	t.Helper()
	return indexFingerprint(sys) +
		fmt.Sprint(checkImplements(t, sys, P1, 50)) +
		fmt.Sprint(checkSafety(t, sys, 50)) +
		fmt.Sprint(checkOptimality(t, sys, -1, 50))
}

// TestCachedBuildBitIdentical: a cold cached build and a warm one both
// reproduce the uncached build's index and verdicts exactly. The cold
// build stores one entry (the whole-sweep stripe index); the warm build
// is answered by that entry alone — one probe, one hit, nothing stored.
func TestCachedBuildBitIdentical(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	single, err := BuildSystem(context.Background(), c, act, WithParallelism(2))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	want := systemVerdicts(t, single)

	store := newTestStore()
	cold, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp"))
	if err != nil {
		t.Fatalf("cold cached BuildSystem: %v", err)
	}
	if got := systemVerdicts(t, cold); got != want {
		t.Fatal("cold cached build differs from the uncached build")
	}
	getsCold, hits, putsCold := store.counts()
	if hits != 0 || putsCold != 1 {
		t.Fatalf("cold build: %d hits, %d puts; want 0 hits and 1 put", hits, putsCold)
	}

	warm, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp"))
	if err != nil {
		t.Fatalf("warm cached BuildSystem: %v", err)
	}
	if got := systemVerdicts(t, warm); got != want {
		t.Fatal("warm cached build differs from the uncached build")
	}
	if gets, hits, puts := store.counts(); gets-getsCold != 1 || hits != 1 || puts != putsCold {
		t.Fatalf("warm build probed %d times with %d hits and stored %d entries; want one hitting probe and no stores",
			gets-getsCold, hits, puts-putsCold)
	}
}

// TestCachedBuildQuotient runs the same equivalence through the
// symmetry quotient: quotiented cached builds (cold and warm) expand to
// the full system's verdicts, and multiplicities survive the cache.
func TestCachedBuildQuotient(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	single, err := BuildSystem(context.Background(), c, act, WithParallelism(2))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	want := systemVerdicts(t, single)

	store := newTestStore()
	for round, label := range []string{"cold", "warm"} {
		sys, err := BuildSystem(context.Background(), c, act,
			WithParallelism(2), WithQuotient(), WithCache(store, "fp"))
		if err != nil {
			t.Fatalf("%s quotiented cached BuildSystem: %v", label, err)
		}
		if got := systemVerdicts(t, sys); got != want {
			t.Fatalf("%s quotiented cached build differs from the uncached full build", label)
		}
		if round == 1 {
			_, hits, _ := store.counts()
			if hits == 0 {
				t.Fatal("warm quotiented build hit nothing")
			}
		}
	}
}

// TestCachedShardIndexBitIdentical: BuildShardIndex with a cache
// produces the same shard indexes — digest-identical — as without, at
// any hit/miss mix, and MergeSystems over them matches the uncached
// single-process build.
func TestCachedShardIndexBitIdentical(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	single, err := BuildSystem(context.Background(), c, act, WithParallelism(2))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	want := systemVerdicts(t, single)

	const k = 2
	store := newTestStore()
	// Warm only stripe 0: the later cached builds mix a hit (stripe 0)
	// with a miss (stripe 1).
	if _, err := BuildShardIndex(context.Background(), c, act, 0, k, WithParallelism(2), WithCache(store, "fp")); err != nil {
		t.Fatalf("warming BuildShardIndex 0/%d: %v", k, err)
	}

	shards := make([]*ShardIndex, k)
	for i := 0; i < k; i++ {
		plain, err := BuildShardIndex(context.Background(), c, act, i, k, WithParallelism(2))
		if err != nil {
			t.Fatalf("BuildShardIndex %d/%d: %v", i, k, err)
		}
		cachedIdx, err := BuildShardIndex(context.Background(), c, act, i, k, WithParallelism(2), WithCache(store, "fp"))
		if err != nil {
			t.Fatalf("cached BuildShardIndex %d/%d: %v", i, k, err)
		}
		if plain.Digest() != cachedIdx.Digest() {
			t.Fatalf("shard %d/%d: cached index digest %s, uncached %s", i, k, cachedIdx.Digest(), plain.Digest())
		}
		shards[i] = cachedIdx
	}
	merged, err := MergeSystems(context.Background(), shards, WithParallelism(2))
	if err != nil {
		t.Fatalf("MergeSystems: %v", err)
	}
	if got := systemVerdicts(t, merged); got != want {
		t.Fatal("merged cached shard indexes differ from the single-process build")
	}
}

// TestCachedShardIndexWarmSkipsEnumeration: a warm BuildShardIndex is
// answered by the stripe-index entry alone — one probe, one hit,
// nothing stored — without re-enumerating (or, quotiented, re-
// canonicalizing) the sweep, and the index is digest-identical to the
// cold one. This is the path the fip_n5_t1_quotient_warm bench entry
// gates.
func TestCachedShardIndexWarmSkipsEnumeration(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	store := newTestStore()
	opts := []Option{WithParallelism(2), WithQuotient(), WithCache(store, "fp")}
	cold, err := BuildShardIndex(context.Background(), c, act, 0, 1, opts...)
	if err != nil {
		t.Fatalf("cold BuildShardIndex: %v", err)
	}
	getsCold, _, putsCold := store.counts()
	warm, err := BuildShardIndex(context.Background(), c, act, 0, 1, opts...)
	if err != nil {
		t.Fatalf("warm BuildShardIndex: %v", err)
	}
	if warm.Digest() != cold.Digest() {
		t.Fatalf("warm index digest %s, cold %s", warm.Digest(), cold.Digest())
	}
	gets, hits, puts := store.counts()
	if gets-getsCold != 1 || hits != 1 || puts != putsCold {
		t.Fatalf("warm build probed %d times with %d hits and stored %d entries; want one hitting index probe and no stores",
			gets-getsCold, hits, puts-putsCold)
	}
}

// TestCachedShardIndexPoisoned corrupts the cached stripe-index entry
// and checks the warm build falls all the way back to execution,
// overwrites the poison, and still reproduces the cold index exactly.
func TestCachedShardIndexPoisoned(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	store := newTestStore()
	cold, err := BuildShardIndex(context.Background(), c, act, 0, 1, WithParallelism(2), WithCache(store, "fp"))
	if err != nil {
		t.Fatalf("cold BuildShardIndex: %v", err)
	}
	store.mu.Lock()
	for key := range store.m {
		store.m[key] = []byte(`{"kind":"not-this-one"}`)
	}
	putsBefore := store.puts
	store.mu.Unlock()

	warm, err := BuildShardIndex(context.Background(), c, act, 0, 1, WithParallelism(2), WithCache(store, "fp"))
	if err != nil {
		t.Fatalf("warm BuildShardIndex over poisoned store: %v", err)
	}
	if warm.Digest() != cold.Digest() {
		t.Fatal("index rebuilt over a poisoned cache differs from the cold one")
	}
	// The poisoned stripe index was recomputed and overwritten.
	if _, _, puts := store.counts(); puts-putsBefore != 1 {
		t.Fatalf("poisoned build re-stored %d entries, want 1", puts-putsBefore)
	}
}

// TestCachedBuildPoisonedEntries corrupts the cached payload and checks
// the warm build recomputes and re-stores it, still bit-identical.
func TestCachedBuildPoisonedEntries(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	store := newTestStore()
	cold, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp"))
	if err != nil {
		t.Fatalf("cold cached BuildSystem: %v", err)
	}
	want := systemVerdicts(t, cold)

	store.mu.Lock()
	for key := range store.m {
		store.m[key] = []byte(`{"pattern":"not-this-one"}`)
	}
	putsBefore := store.puts
	store.mu.Unlock()

	warm, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp"))
	if err != nil {
		t.Fatalf("warm cached BuildSystem over poisoned store: %v", err)
	}
	if got := systemVerdicts(t, warm); got != want {
		t.Fatal("build over a poisoned cache differs")
	}
	if _, _, puts := store.counts(); puts-putsBefore != 1 {
		t.Fatalf("poisoned build re-stored %d entries, want 1", puts-putsBefore)
	}
}

// TestCachedBuildDifferentFingerprintMisses: a cache warmed under one
// build fingerprint serves nothing to another.
func TestCachedBuildDifferentFingerprintMisses(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	store := newTestStore()
	if _, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp")); err != nil {
		t.Fatal(err)
	}
	_, hitsBefore, _ := store.counts()
	if _, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp2")); err != nil {
		t.Fatal(err)
	}
	if _, hits, _ := store.counts(); hits != hitsBefore {
		t.Fatalf("changed fingerprint still hit %d entries", hits-hitsBefore)
	}
}

var _ core.ResultCache = (*testStore)(nil)
