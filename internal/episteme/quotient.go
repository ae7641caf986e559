// Symmetry-quotiented system construction: the expansion half.
//
// The enumeration half lives in source.Quotient — execute only the
// canonical representative of each agent-permutation orbit, annotated
// with its orbit size. This file turns a representative System back into
// the full one, exactly: the paper's exchanges and action protocols are
// agent-symmetric, so the run of any scenario g is the run of its
// canonical representative with the agents relabeled. ExpandQuotient
// re-enumerates the full sweep WITHOUT executing it, maps each scenario
// to (representative, relabeling), and synthesizes the full system's
// decision ledgers and interned class tables by permuting the
// representative's — class ids assigned by first appearance in global
// run order, the same order buildIndex and MergeSystems assign them, so
// every verdict over the expanded system is bit-identical to the
// unquotiented build's (pinned by TestQuotientSystemBitIdentical and the
// CI quotient smoke).
//
// Local-state identity crosses the relabeling through model.KeyPermuter:
// agent i's state key in run g is the key of agent π(i)'s state in the
// representative, rewritten under π⁻¹. Exchanges whose keys don't
// implement KeyPermuter cannot expand — ExpandQuotient refuses rather
// than producing silently wrong class structure.

package episteme

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// ExpandQuotient rebuilds the full interpreted system from a quotiented
// one (BuildSystem with WithQuotient builds and expands in one call;
// sharded flows expand once, after MergeSystems reassembles the
// representative system). c must be the context the quotiented system
// was built in — the expansion re-enumerates c's scenario source and
// cross-checks every orbit against the representative weights, so a
// mismatched context fails loudly instead of mis-expanding. The expanded
// system carries no state traces (like a merged one): System.Key and the
// checkers ride the interned class tables.
func ExpandQuotient(ctx context.Context, rep *System, c Context) (*System, error) {
	if !rep.Quotiented() {
		return nil, fmt.Errorf("episteme: ExpandQuotient on a system that is not quotiented")
	}
	if c.Exchange == nil {
		return nil, fmt.Errorf("episteme: ExpandQuotient needs the context's exchange")
	}
	kp, ok := c.Exchange.(model.KeyPermuter)
	if !ok {
		return nil, fmt.Errorf("episteme: exchange %q does not implement model.KeyPermuter; its local-state keys cannot cross an agent relabeling", c.Exchange.Name())
	}
	n, horizon := rep.N, rep.Horizon
	if c.Exchange.N() != n || c.T != rep.T || c.horizonOrDefault() != horizon {
		return nil, fmt.Errorf("episteme: expansion context (n=%d,t=%d,h=%d) does not match quotiented system (n=%d,t=%d,h=%d)",
			c.Exchange.N(), c.T, c.horizonOrDefault(), n, rep.T, horizon)
	}

	// Representatives by scenario fingerprint: the full enumeration below
	// resolves each scenario's canonical form against this.
	repOf := make(map[string]int32, len(rep.Runs))
	for r, res := range rep.Runs {
		fp := scenarioFingerprint(res.Pattern, res.Inits)
		if _, dup := repOf[fp]; dup {
			return nil, fmt.Errorf("episteme: quotiented system carries representative %q twice", fp)
		}
		repOf[fp] = int32(r)
	}

	src, err := c.scenarioSource(n, horizon)
	if err != nil {
		return nil, err
	}

	// Pass 1 — re-enumerate the full sweep, mapping scenario ordinal g to
	// (gRep[g], perms[gPerm[g]]): its representative and the relabeling π
	// with π·g = representative. Runs are synthesized on the way: ledgers
	// are the representative's with agents relabeled (g's agent i is the
	// representative's agent π(i)), stats are permutation-invariant.
	var (
		gRep, gPerm []int32
		perms       [][]model.AgentID // interned relabelings π
		invs        [][]model.AgentID // their inverses π⁻¹
		isID        []bool
		permID      = make(map[string]int32)
		counts      = make([]int64, len(rep.Runs))
		runs        []*engine.Result
	)
	for sc, more := src.Next(); more; sc, more = src.Next() {
		canonPat, canonInits, orbit, perm := model.CanonicalizeScenarioPerm(sc.Pattern, sc.Inits)
		r, known := repOf[scenarioFingerprint(canonPat, canonInits)]
		if !known {
			return nil, fmt.Errorf("episteme: scenario %q canonicalizes outside the representative set (context mismatch?)",
				scenarioFingerprint(sc.Pattern, sc.Inits))
		}
		if w := rep.Weight(int(r)); orbit != w {
			return nil, fmt.Errorf("episteme: representative %d carries weight %d, its orbit has size %d", r, w, orbit)
		}
		counts[r]++
		pid, seen := permID[permFingerprint(perm)]
		if !seen {
			pid = int32(len(perms))
			permID[permFingerprint(perm)] = pid
			perms = append(perms, perm)
			invs = append(invs, invertPerm(perm))
			isID = append(isID, isIdentity(perm))
		}
		gRep = append(gRep, r)
		gPerm = append(gPerm, pid)
		runs = append(runs, expandRun(rep.Runs[r], sc, perm))
	}
	if es, isErr := src.(core.ErrorSource); isErr {
		if err := es.Err(); err != nil {
			return nil, err
		}
	}
	for r, cnt := range counts {
		if w := rep.Weight(r); cnt != w {
			return nil, fmt.Errorf("episteme: representative %d stands for %d scenarios, enumeration visited %d (context mismatch?)", r, w, cnt)
		}
	}

	// Pass 2 — intern the full system's class tables. For slot (m, i),
	// run g's key is the representative's key at (m, π(i)) rewritten under
	// π⁻¹; interning in ascending g reproduces the first-appearance order
	// the single-process buildIndex assigns. The (rep agent, relabeling,
	// rep class) triple determines the key, so each distinct triple pays
	// for the string rewrite once and every other run is integer lookups.
	total := len(runs)
	sys := &System{N: n, T: rep.T, Horizon: horizon, Runs: runs, par: rep.parallelism()}
	sys.allocIndex()

	type triple struct {
		src model.AgentID
		pid int32
		rc  int32
	}
	sliceErr := make([]error, horizon+1)
	err = parallelDo(ctx, sys.par, horizon+1, func(m int) {
		for i := 0; i < n && sliceErr[m] == nil; i++ {
			slot := m*n + i
			byKey := make(map[string]int32)
			var classKey []string
			classOf := make([]int32, total)
			cache := make(map[triple]int32)
			for g := 0; g < total; g++ {
				pid := gPerm[g]
				srcAgent := perms[pid][i]
				rc := rep.classOf[m*n+int(srcAgent)][gRep[g]]
				tk := triple{src: srcAgent, pid: pid, rc: rc}
				cls, hit := cache[tk]
				if !hit {
					key := rep.classKey[m*n+int(srcAgent)][rc]
					if !isID[pid] {
						key, sliceErr[m] = kp.PermuteKey(key, invs[pid])
						if sliceErr[m] != nil {
							return
						}
					}
					cls, hit = byKey[key]
					if !hit {
						cls = int32(len(classKey))
						byKey[key] = cls
						classKey = append(classKey, key)
					}
					cache[tk] = cls
				}
				classOf[g] = cls
			}
			sys.setSlot(slot, classOf, classKey, byKey)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, e := range sliceErr {
		if e != nil {
			return nil, fmt.Errorf("episteme: expanding quotiented keys: %w", e)
		}
	}
	sys.foldGlobal(0, len(sys.classKey))
	return sys, nil
}

// expandRun synthesizes the run of scenario sc from its representative's
// run: by agent symmetry run(sc) is run(rep) with the agents relabeled
// under π⁻¹ (sc's agent i is rep's agent π(i)). State traces are not
// reconstructed — the expanded system answers knowledge queries through
// its interned class tables, like a merged one.
func expandRun(repRes *engine.Result, sc core.Scenario, perm []model.AgentID) *engine.Result {
	n := repRes.N
	res := &engine.Result{
		N:             n,
		Horizon:       repRes.Horizon,
		Pattern:       sc.Pattern,
		Inits:         append([]model.Value(nil), sc.Inits...),
		Actions:       make([][]model.Action, len(repRes.Actions)),
		Decision:      make([]model.Value, n),
		DecisionRound: make([]int, n),
		Stats:         repRes.Stats, // message counts are permutation-invariant
	}
	for i := 0; i < n; i++ {
		res.Decision[i] = repRes.Decision[perm[i]]
		res.DecisionRound[i] = repRes.DecisionRound[perm[i]]
	}
	for m, row := range repRes.Actions {
		acts := make([]model.Action, n)
		for i := range acts {
			acts[i] = row[perm[i]]
		}
		res.Actions[m] = acts
	}
	return res
}

// scenarioFingerprint renders a scenario's identity — the pattern's
// canonical key plus the initial preferences — for representative lookup.
func scenarioFingerprint(p *model.Pattern, inits []model.Value) string {
	buf := make([]byte, 0, len(inits)+1)
	buf = append(buf, '/')
	for _, v := range inits {
		switch v {
		case model.Zero:
			buf = append(buf, '0')
		case model.One:
			buf = append(buf, '1')
		default:
			buf = append(buf, '?')
		}
	}
	return p.Key() + string(buf)
}

// permFingerprint renders a permutation for interning.
func permFingerprint(perm []model.AgentID) string {
	buf := make([]byte, len(perm))
	for i, a := range perm {
		buf[i] = byte(a)
	}
	return string(buf)
}

// invertPerm returns π⁻¹.
func invertPerm(perm []model.AgentID) []model.AgentID {
	inv := make([]model.AgentID, len(perm))
	for i, a := range perm {
		inv[a] = model.AgentID(i)
	}
	return inv
}

func isIdentity(perm []model.AgentID) bool {
	for i, a := range perm {
		if int(a) != i {
			return false
		}
	}
	return true
}
