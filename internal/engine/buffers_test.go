package engine

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/registry"
)

// runSignature flattens a result into one comparable fingerprint: every
// state key, every action, the decision ledger, and the traffic stats.
func runSignature(res *Result) string {
	var b strings.Builder
	for m := range res.States {
		for i := range res.States[m] {
			b.WriteString(res.States[m][i].Key())
			b.WriteByte(';')
		}
	}
	for m := range res.Actions {
		for i := range res.Actions[m] {
			b.WriteString(res.Actions[m][i].String())
			b.WriteByte(';')
		}
	}
	for i := range res.Decision {
		b.WriteString(res.Decision[i].String())
		b.WriteString("@")
		b.WriteString(strconv.Itoa(res.DecisionRound[i]))
		b.WriteByte(';')
	}
	b.WriteString(strconv.Itoa(res.Stats.MessagesSent))
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(res.Stats.MessagesDelivered))
	b.WriteByte('/')
	b.WriteString(strconv.FormatInt(res.Stats.BitsSent, 10))
	b.WriteByte('/')
	b.WriteString(strconv.FormatInt(res.Stats.BitsDelivered, 10))
	return b.String()
}

// mixedScenarios builds a deterministic mixed scenario list.
func mixedScenarios(n, tf, count int, seed int64) []Config {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Config, count)
	for k := range out {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.45)
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		out[k] = Config{Pattern: pat, Inits: inits}
	}
	return out
}

// scribbleState mutates every writable slot reachable from the state —
// unknown edge labels and unset preference labels of a fip graph — and
// returns how many slots it flipped. Non-graph states expose no shared
// memory and report 0.
func scribbleState(st model.State) int {
	fs, ok := st.(*exchange.FIPState)
	if !ok {
		return 0
	}
	g := fs.Graph()
	count := 0
	for j := 0; j < g.N(); j++ {
		if !g.Pref(model.AgentID(j)).IsSet() {
			g.SetPref(model.AgentID(j), model.One)
			count++
		}
	}
	for k := 0; k < g.M(); k++ {
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if g.Edge(k, model.AgentID(i), model.AgentID(j)) == graph.Unknown {
					g.SetEdge(k, model.AgentID(i), model.AgentID(j), graph.Sent)
					count++
				}
			}
		}
	}
	return count
}

// TestBufferedTraceIdentityAllStacks checks that for every registered
// stack the fresh-allocation path and the buffered path produce
// bit-identical traces, run after run over shared buffers. The buffered
// runs go through the Executor interface, the path the core Runner and
// the executors standing in for the engine use.
func TestBufferedTraceIdentityAllStacks(t *testing.T) {
	n, tf := 5, 2
	for _, name := range registry.StackNames() {
		info, err := registry.Stack(name)
		if err != nil {
			t.Fatal(err)
		}
		ex, act, err := registry.Compose(info.Exchange, info.Action, n, tf)
		if err != nil {
			t.Fatal(err)
		}
		var x Executor = Sequential{}
		buf := NewBuffers()
		for k, cfg := range mixedScenarios(n, tf, 12, 41) {
			cfg.Exchange, cfg.Action = ex, act
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := runSignature(fresh)
			bres, err := x.Execute(cfg, buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := runSignature(bres); got != want {
				t.Fatalf("%s scenario %d: buffered trace diverged", name, k)
			}
		}
	}
}

// TestArenaResultsOwnTheirMemory is the aliasing property test of the
// Buffers rule: after a buffered run, every returned Result owns its
// memory outright. It mutates everything reachable from the returned
// results, re-runs the same scenarios over the same buffers, and
// requires (a) the fresh results to be pristine and (b) the mutations to
// survive — either failing means reused buffers were shared with a live
// Result.
func TestArenaResultsOwnTheirMemory(t *testing.T) {
	n, tf := 4, 1
	for _, name := range []string{"fip", "fip+pmin", "fip-nock", "min", "basic"} {
		info, err := registry.Stack(name)
		if err != nil {
			t.Fatal(err)
		}
		ex, act, err := registry.Compose(info.Exchange, info.Action, n, tf)
		if err != nil {
			t.Fatal(err)
		}
		scenarios := mixedScenarios(n, tf, 16, 97)
		buf := NewBuffers()

		reference := make([]string, len(scenarios))
		results := make([]*Result, len(scenarios))
		for k, cfg := range scenarios {
			cfg.Exchange, cfg.Action = ex, act
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reference[k] = runSignature(fresh)
			if results[k], err = RunBuffered(cfg, buf); err != nil {
				t.Fatal(err)
			}
			if got := runSignature(results[k]); got != reference[k] {
				t.Fatalf("%s scenario %d: buffered run diverged before mutation", name, k)
			}
		}

		// Mutate everything reachable from every returned result.
		scribbled := 0
		for _, res := range results {
			for _, row := range res.States {
				for _, st := range row {
					scribbled += scribbleState(st)
				}
			}
		}
		if strings.HasPrefix(name, "fip") && scribbled == 0 {
			t.Fatalf("%s: property test scribbled nothing — not exercising shared memory", name)
		}
		mutated := make([]string, len(results))
		for k, res := range results {
			mutated[k] = runSignature(res)
		}

		// Re-run the same scenarios through the same (recycled) buffers.
		for k, cfg := range scenarios {
			cfg.Exchange, cfg.Action = ex, act
			res, err := RunBuffered(cfg, buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := runSignature(res); got != reference[k] {
				t.Fatalf("%s scenario %d: re-run over scribbled buffers diverged — buffers aliased a returned Result", name, k)
			}
		}
		// And the mutations must have survived the re-runs untouched.
		for k, res := range results {
			if got := runSignature(res); got != mutated[k] {
				t.Fatalf("%s scenario %d: re-run scribbled over a returned Result's memory", name, k)
			}
		}
	}
}
