package episteme

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/action"
)

// FuzzReadShardIndex feeds arbitrary bytes through the path an uploaded
// check stripe takes at the fleet coordinator: ReadShardIndex, Validate,
// and MergeSystems. Whatever the input, none of them may panic, and an
// index Validate accepts must merge without one.
func FuzzReadShardIndex(f *testing.F) {
	ctx := context.Background()
	for _, opts := range [][]Option{{WithParallelism(1)}, {WithParallelism(1), WithQuotient()}} {
		idx, err := BuildShardIndex(ctx, fipContext31(), action.NewOpt(1), 0, 4, opts...)
		if err != nil {
			f.Fatalf("seeding shard index: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteShardIndex(&buf, idx); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"kind":"eba-episteme-shard","v":1,"shard":0,"shards":1,"n":1,"t":0,"horizon":0,"runs":[],"classKeys":[[]],"classOf":[[]]}`))
	f.Add([]byte(`{"kind":"eba-episteme-shard","v":1,"shard":0,"shards":1,"n":2,"t":0,"horizon":1,` +
		`"runs":[{"pattern":"n=2;h=1;f=;d=","inits":[0,1],"decisions":[7,0],"rounds":[1,1],"actions":[[0,0]],` +
		`"stats":{"sent":0,"delivered":0,"bitsSent":0,"bitsDelivered":0}}],` +
		`"classKeys":[["a"],["b"],["c"],["d"]],"classOf":[[0],[0],[0],[0]]}`))
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ReadShardIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		if idx.Validate() != nil {
			return
		}
		// A lone stripe merges only as the 1-way split; relabel so the
		// merge exercises the run restore and re-interning paths too.
		idx.Shard, idx.Shards = 0, 1
		sys, err := MergeSystems(ctx, []*ShardIndex{idx}, WithParallelism(1))
		if err != nil {
			return
		}
		if len(sys.Runs) != len(idx.Runs) {
			t.Fatalf("merged %d runs from an index of %d", len(sys.Runs), len(idx.Runs))
		}
	})
}
