package episteme

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/model"
)

// memoExec is the model checker's execution substrate: an engine.Executor
// that memoizes work across the runs of one exhaustive enumeration.
// Exhaustive sweeps execute the same round many times — patterns sharing
// a drop prefix drive identical state vectors through identical
// deliveries — so the (state vector, actions, round drops) triple
// determines the next state vector and the round's traffic stats.
// memoExec interns local states into dense ids, memoizes the action
// protocol per (agent, state id) — action protocols are functions of the
// local state, the premise CheckImplements' per-class dedup already rests
// on — memoizes round transitions per triple, and interns the time-0
// state vectors per initial assignment. Runs that revisit a transition
// alias the same immutable state objects, which also lets every
// downstream key computation hit the same cached fingerprints.
//
// The memo keys state vectors by interned ids and round deliveries by an
// n²-bit mask, so it requires n ≤ 8; larger systems (far beyond
// exhaustive checking anyway) fall back to the plain engine. Safe for
// concurrent use by the Runner's worker pool.
type memoExec struct {
	mu      sync.RWMutex
	stateID map[string]int32
	acts    [][]model.Action // [agent][stateID] → memoized action, or actUnknown
	actVecs map[[8]int32][]model.Action
	steps   map[stepKey]stepVal
	initial map[uint32][]model.State
}

// actUnknown marks an action-memo slot that has not been evaluated yet.
const actUnknown = model.Action(-128)

// stepKey identifies one round transition up to trace equality.
type stepKey struct {
	m      int
	states [8]int32
	acts   [8]int8
	drops  uint64
}

// stepVal is the shared outcome of a memoized transition. The state
// slice is immutable and aliased by every run that hits the entry.
type stepVal struct {
	next  []model.State
	stats engine.Stats
}

func newMemoExec(n int) *memoExec {
	return &memoExec{
		stateID: make(map[string]int32, 1024),
		acts:    make([][]model.Action, n),
		actVecs: make(map[[8]int32][]model.Action, 1024),
		steps:   make(map[stepKey]stepVal, 1024),
		initial: make(map[uint32][]model.State),
	}
}

// internState returns the dense id of a local-state key, growing the
// per-agent action memos alongside the id space.
func (e *memoExec) internState(key string) int32 {
	e.mu.RLock()
	id, ok := e.stateID[key]
	e.mu.RUnlock()
	if ok {
		return id
	}
	e.mu.Lock()
	id, ok = e.stateID[key]
	if !ok {
		id = int32(len(e.stateID))
		e.stateID[key] = id
		for i := range e.acts {
			e.acts[i] = append(e.acts[i], actUnknown)
		}
	}
	e.mu.Unlock()
	return id
}

// actFor returns the memoized action of agent i at the interned state,
// evaluating the protocol on the first visit.
func (e *memoExec) actFor(act model.ActionProtocol, i model.AgentID, id int32, st model.State) model.Action {
	e.mu.RLock()
	a := e.acts[i][id]
	e.mu.RUnlock()
	if a != actUnknown {
		return a
	}
	a = act.Act(i, st)
	e.mu.Lock()
	e.acts[i][id] = a
	e.mu.Unlock()
	return a
}

// actVecFor returns the shared action vector of an interned state vector:
// actions are functions of the local state, so every run revisiting the
// vector records the same immutable slice.
func (e *memoExec) actVecFor(act model.ActionProtocol, ids [8]int32, states []model.State) []model.Action {
	e.mu.RLock()
	acts, ok := e.actVecs[ids]
	e.mu.RUnlock()
	if ok {
		return acts
	}
	acts = make([]model.Action, len(states))
	for i := range states {
		acts[i] = e.actFor(act, model.AgentID(i), ids[i], states[i])
	}
	e.mu.Lock()
	if prev, again := e.actVecs[ids]; again {
		acts = prev
	} else {
		e.actVecs[ids] = acts
	}
	e.mu.Unlock()
	return acts
}

// initialStates returns the shared time-0 state vector for an initial
// assignment (at most 2ⁿ distinct vectors exist).
func (e *memoExec) initialStates(ex model.Exchange, inits []model.Value) []model.State {
	var key uint32
	for i, v := range inits {
		key |= uint32(v&3) << (2 * uint(i))
	}
	e.mu.RLock()
	states, ok := e.initial[key]
	e.mu.RUnlock()
	if ok {
		return states
	}
	states = make([]model.State, len(inits))
	for i := range inits {
		states[i] = ex.Initial(model.AgentID(i), inits[i])
	}
	e.mu.Lock()
	if prev, again := e.initial[key]; again {
		states = prev
	} else {
		e.initial[key] = states
	}
	e.mu.Unlock()
	return states
}

// dropMask packs round-m delivery of every ordered pair into a bitmask.
func dropMask(pat *model.Pattern, m, n int) uint64 {
	var mask uint64
	bit := uint(0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !pat.Delivered(m, model.AgentID(i), model.AgentID(j)) {
				mask |= 1 << bit
			}
			bit++
		}
	}
	return mask
}

// Execute runs one configuration like engine.RunBuffered, but serves
// actions, round transitions, and initial states from the shared memo
// when identical ones have already been computed. Results are
// bit-identical to the plain engine's (shared state objects are equal by
// construction); only the work is shared. Result.Inits aliases
// cfg.Inits, which the model checker's scenario source allocates per
// scenario.
func (e *memoExec) Execute(cfg engine.Config, buf *engine.Buffers) (*engine.Result, error) {
	ex, act, pat := cfg.Exchange, cfg.Action, cfg.Pattern
	if ex == nil || act == nil || pat == nil {
		return nil, errors.New("engine: Exchange, Action, and Pattern are all required")
	}
	n := ex.N()
	if n > 8 {
		// The memo's packed keys cover n ≤ 8; beyond that, run plain.
		return engine.RunBuffered(cfg, buf)
	}
	if pat.N() != n {
		return nil, fmt.Errorf("engine: pattern is for %d agents, exchange for %d", pat.N(), n)
	}
	if len(cfg.Inits) != n {
		return nil, fmt.Errorf("engine: %d initial values for %d agents", len(cfg.Inits), n)
	}
	for i, v := range cfg.Inits {
		if !v.IsSet() {
			return nil, fmt.Errorf("engine: agent %d has no initial preference", i)
		}
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = pat.Horizon()
	}
	if horizon < 0 {
		return nil, fmt.Errorf("engine: negative horizon %d", horizon)
	}
	if buf != nil {
		// Bind the worker's buffers to this run; fresh transitions are
		// computed through the buffered step.
		buf.BeginRun(ex)
	}

	res := &engine.Result{
		N:             n,
		Horizon:       horizon,
		Pattern:       pat,
		Inits:         cfg.Inits,
		States:        make([][]model.State, horizon+1),
		Actions:       make([][]model.Action, horizon),
		Decision:      make([]model.Value, n),
		DecisionRound: make([]int, n),
	}
	for i := range res.Decision {
		res.Decision[i] = model.None
	}
	cur := e.initialStates(ex, cfg.Inits)
	res.States[0] = cur

	for m := 0; m < horizon; m++ {
		key := stepKey{m: m, drops: dropMask(pat, m, n)}
		for i := 0; i < n; i++ {
			key.states[i] = e.internState(cur[i].Key())
		}
		acts := e.actVecFor(act, key.states, cur)
		for i := 0; i < n; i++ {
			key.acts[i] = int8(acts[i])
			if d := acts[i].Decision(); d.IsSet() && res.Decision[i] == model.None {
				res.Decision[i] = d
				res.DecisionRound[i] = m + 1
			}
		}
		res.Actions[m] = acts

		e.mu.RLock()
		val, ok := e.steps[key]
		e.mu.RUnlock()
		if !ok {
			next := make([]model.State, n)
			stats, err := engine.StepInto(ex, pat, m, cur, acts, next, buf)
			if err != nil {
				return nil, err
			}
			val = stepVal{next: next, stats: stats}
			e.mu.Lock()
			if prev, again := e.steps[key]; again {
				val = prev
			} else {
				e.steps[key] = val
			}
			e.mu.Unlock()
		}
		res.Stats.MessagesSent += val.stats.MessagesSent
		res.Stats.MessagesDelivered += val.stats.MessagesDelivered
		res.Stats.BitsSent += val.stats.BitsSent
		res.Stats.BitsDelivered += val.stats.BitsDelivered
		cur = val.next
		res.States[m+1] = cur
	}
	return res, nil
}

// Interface compliance.
var _ engine.Executor = (*memoExec)(nil)
