package episteme

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"repro/internal/action"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/source"
)

// Format pins: the sha256 of every artifact that leaves a process —
// outcome streams, shard indexes, and result-cache payloads — for fixed
// fip n=3, t=1 inputs. The constants were recorded once and must never
// change without a format version bump (outcomeVersion,
// shardIndexVersion, cacheSchema): the CI smokes only compare two runs
// of the same tree, so a refactor that silently changes bytes on disk or
// on the wire is caught here and nowhere else.
const (
	pinOutcomeStream  = "671b29063f83d08aa33aea4c10e750dcf394ae09fbecd97b1b8b981529dad007"
	pinShardIndex     = "6367295ca97001a3266b57bb812d80501b8e17c38978a2105d3074b173d22ada"
	pinShardDigest    = "cc85a438cd5bc047de2d1d9d11658d04"
	pinRunPayloads    = "1de380534b5ad7296a2b9b52f5bb4e2f62cb0247973922f20efbfd4246ba50da"
	pinIdxPayloads    = "e35345ca0111f2e2b8b640b95b7d40d08758f81e46ac5693a9134102fa8cd0aa"
	pinFingerprintTag = "format-pin"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// storeDigest hashes every (key, payload) entry of the store in key order.
func storeDigest(s *testStore) (string, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\t')
		b.Write(s.m[k])
		b.WriteByte('\n')
	}
	return sha(b.Bytes()), len(keys)
}

func fipSweep31(t *testing.T, st core.Stack) core.Source {
	t.Helper()
	pats, err := source.SO(st.N, st.T, st.Horizon(), adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.CrossInits(pats, st.N)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestFormatPins recomputes each pinned artifact and compares digests.
func TestFormatPins(t *testing.T) {
	ctx := context.Background()
	st := core.MustStack("fip", core.WithN(3), core.WithT(1))

	// A whole-sweep outcome stream (shard 0/1), whose run payloads land
	// in the result cache as a side effect.
	runStore := newTestStore()
	var stream bytes.Buffer
	runner := core.NewRunner(st, core.WithParallelism(2), core.WithResultCache(runStore, pinFingerprintTag))
	if _, err := runner.RunShard(ctx, fipSweep31(t, st), 0, 1, &stream); err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if got := sha(stream.Bytes()); got != pinOutcomeStream {
		t.Errorf("outcome stream sha256 = %s, pinned %s", got, pinOutcomeStream)
	}
	if got, n := storeDigest(runStore); got != pinRunPayloads {
		t.Errorf("%d run cache payloads sha256 = %s, pinned %s", n, got, pinRunPayloads)
	}

	// A quotiented stripe index (0/1) built through the cache: its
	// whole-stripe "idx" entry is the one payload that lands in the store.
	idxStore := newTestStore()
	idx, err := BuildShardIndex(ctx, fipContext31(), action.NewOpt(1), 0, 1,
		WithQuotient(), WithParallelism(2), WithCache(idxStore, pinFingerprintTag))
	if err != nil {
		t.Fatalf("BuildShardIndex: %v", err)
	}
	var idxBytes bytes.Buffer
	if err := WriteShardIndex(&idxBytes, idx); err != nil {
		t.Fatal(err)
	}
	if got := sha(idxBytes.Bytes()); got != pinShardIndex {
		t.Errorf("quotiented shard index sha256 = %s, pinned %s", got, pinShardIndex)
	}
	if got := idx.Digest(); got != pinShardDigest {
		t.Errorf("ShardIndex.Digest = %s, pinned %s", got, pinShardDigest)
	}
	if got, n := storeDigest(idxStore); got != pinIdxPayloads {
		t.Errorf("%d idx cache payloads sha256 = %s, pinned %s", n, got, pinIdxPayloads)
	}
}
