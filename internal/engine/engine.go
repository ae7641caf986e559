// Package engine executes a protocol stack — an information-exchange
// protocol paired with an action protocol — under a failure pattern, one
// synchronized round at a time, exactly as Section 3 of the paper
// prescribes: at each time m every agent performs the action chosen by its
// action protocol, the exchange protocol selects messages (μ), the failure
// pattern filters deliveries (F), and every agent updates its local state
// (δ).
//
// The engine is deterministic and sequential: a run is a pure function
// of the configuration, so parallelism lives one level up, across runs
// (the core Runner's worker pool), never inside one.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/model"
)

// Config describes one execution.
type Config struct {
	// Exchange is the information-exchange protocol E.
	Exchange model.Exchange
	// Action is the action protocol P.
	Action model.ActionProtocol
	// Pattern is the failure pattern (the adversary).
	Pattern *model.Pattern
	// Inits holds each agent's initial preference; length must equal the
	// number of agents and every entry must be 0 or 1.
	Inits []model.Value
	// Horizon is the number of rounds to execute. Zero means "use the
	// pattern's horizon".
	Horizon int
}

// Stats aggregates message traffic for the complexity experiments
// (Proposition 8.1). Senders are charged for every non-⊥ message they
// emit whether or not the adversary delivers it.
type Stats struct {
	// MessagesSent counts non-⊥ messages handed to the network.
	MessagesSent int
	// MessagesDelivered counts messages that reached their recipient.
	MessagesDelivered int
	// BitsSent is the total wire size of sent messages.
	BitsSent int64
	// BitsDelivered is the total wire size of delivered messages.
	BitsDelivered int64
}

// Result is a completed run: the full state and action trace plus the
// decision ledger and traffic statistics.
type Result struct {
	// N is the number of agents.
	N int
	// Horizon is the number of rounds executed.
	Horizon int
	// Pattern is the adversary the run was executed against.
	Pattern *model.Pattern
	// Inits records the initial preferences.
	Inits []model.Value
	// States[m][i] is agent i's local state at time m, for m in 0..Horizon.
	States [][]model.State
	// Actions[m][i] is the action agent i performed at time m (i.e. in
	// round m+1), for m in 0..Horizon-1.
	Actions [][]model.Action
	// Decision[i] is the first value agent i decided, or None.
	Decision []model.Value
	// DecisionRound[i] is the round in which agent i first decided (the
	// deciding action happens at time DecisionRound[i]-1), or 0 if it
	// never decided.
	DecisionRound []int
	// Stats aggregates message traffic.
	Stats Stats
}

// Buffers holds the per-round working memory of an execution — the
// outbox and inbox matrices and the rolling state slices — so that a
// caller running many configurations (a batch worker, a benchmark loop)
// can reuse them across runs instead of reallocating per round. A
// Buffers value belongs to one goroutine at a time; the zero value is
// ready to use. A returned *Result never aliases its Buffers: the trace's
// slices are fresh and states are immutable, so the same buffers can be
// reused run after run while every earlier Result stays live.
type Buffers struct {
	outbox [][]model.Message
	inbox  [][]model.Message
	cur    []model.State
	next   []model.State

	// bex is non-nil while the buffers are bound to a buffered exchange
	// (set by BeginRun for the duration of a run).
	bex model.BufferedExchange
}

// NewBuffers returns an empty buffer set, sized lazily on first use.
func NewBuffers() *Buffers { return &Buffers{} }

// ensure sizes the buffers for n agents.
func (b *Buffers) ensure(n int) {
	if cap(b.outbox) < n {
		b.outbox = make([][]model.Message, n)
	}
	b.outbox = b.outbox[:n]
	if cap(b.inbox) < n {
		b.inbox = make([][]model.Message, n)
	}
	b.inbox = b.inbox[:n]
	for j := range b.inbox {
		if cap(b.inbox[j]) < n {
			b.inbox[j] = make([]model.Message, n)
		}
		b.inbox[j] = b.inbox[j][:n]
	}
	// The outbox rows double as MessagesInto targets for buffered
	// exchanges; plain exchanges overwrite the row with their own slice.
	for i := range b.outbox {
		if cap(b.outbox[i]) < n {
			b.outbox[i] = make([]model.Message, n)
		}
		b.outbox[i] = b.outbox[i][:n]
	}
	if cap(b.cur) < n {
		b.cur = make([]model.State, n)
	}
	b.cur = b.cur[:n]
	if cap(b.next) < n {
		b.next = make([]model.State, n)
	}
	b.next = b.next[:n]
}

// BeginRun binds the buffers to one run of ex: sizes the matrices and
// resolves the buffered-exchange interface.
func (b *Buffers) BeginRun(ex model.Exchange) {
	b.ensure(ex.N())
	b.bex, _ = ex.(model.BufferedExchange)
}

// Run executes the configuration and returns the completed run.
func Run(cfg Config) (*Result, error) { return RunBuffered(cfg, nil) }

// RunBuffered is Run with caller-provided buffers; buf may be nil, in
// which case the round matrices are allocated per round as Run does.
// The returned Result never aliases buf, so the same buffers can be
// reused for the next run while earlier results stay live.
func RunBuffered(cfg Config, buf *Buffers) (*Result, error) {
	ex, act, pat := cfg.Exchange, cfg.Action, cfg.Pattern
	if ex == nil || act == nil || pat == nil {
		return nil, errors.New("engine: Exchange, Action, and Pattern are all required")
	}
	n := ex.N()
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

	res := &Result{
		N:             n,
		Horizon:       horizon,
		Pattern:       pat,
		Inits:         append([]model.Value(nil), cfg.Inits...),
		States:        make([][]model.State, horizon+1),
		Actions:       make([][]model.Action, horizon),
		Decision:      make([]model.Value, n),
		DecisionRound: make([]int, n),
	}
	for i := range res.Decision {
		res.Decision[i] = model.None
	}

	var cur, next []model.State
	if buf != nil {
		buf.BeginRun(ex)
		cur, next = buf.cur, buf.next
	} else {
		cur = make([]model.State, n)
	}
	for i := 0; i < n; i++ {
		cur[i] = ex.Initial(model.AgentID(i), cfg.Inits[i])
	}
	res.States[0] = append([]model.State(nil), cur...)

	for m := 0; m < horizon; m++ {
		// Every agent chooses its action from its time-m state. The acts
		// slice is recorded in the trace, so it is allocated fresh.
		acts := make([]model.Action, n)
		for i := 0; i < n; i++ {
			acts[i] = act.Act(model.AgentID(i), cur[i])
			if d := acts[i].Decision(); d.IsSet() && res.Decision[i] == model.None {
				res.Decision[i] = d
				res.DecisionRound[i] = m + 1
			}
		}
		res.Actions[m] = acts

		if buf == nil {
			next = make([]model.State, n)
		}
		stats, err := stepInto(ex, pat, m, cur, acts, next, buf)
		if err != nil {
			return nil, err
		}
		res.Stats.MessagesSent += stats.MessagesSent
		res.Stats.MessagesDelivered += stats.MessagesDelivered
		res.Stats.BitsSent += stats.BitsSent
		res.Stats.BitsDelivered += stats.BitsDelivered
		cur, next = next, cur
		res.States[m+1] = append([]model.State(nil), cur...)
	}
	return res, nil
}

// Step executes one synchronous round (round m+1): μ selects the messages
// each agent sends given its chosen action, the failure pattern filters
// deliveries, and δ produces the time-m+1 states. It is the common kernel
// of Run and of the knowledge-based-program builder in internal/episteme,
// which must choose actions by evaluating knowledge tests between rounds.
func Step(ex model.Exchange, pat *model.Pattern, m int, states []model.State, acts []model.Action) ([]model.State, Stats, error) {
	next := make([]model.State, ex.N())
	stats, err := stepInto(ex, pat, m, states, acts, next, nil)
	if err != nil {
		return nil, stats, err
	}
	return next, stats, nil
}

// StepInto is Step for executors that manage their own trace and
// buffers: it writes the time-m+1 states into next, drawing the message
// matrices from buf (bind buf to the exchange with BeginRun once per
// run; a nil buf allocates per round as Step does).
func StepInto(ex model.Exchange, pat *model.Pattern, m int, states []model.State, acts []model.Action,
	next []model.State, buf *Buffers) (Stats, error) {
	return stepInto(ex, pat, m, states, acts, next, buf)
}

// stepInto is Step writing the time-m+1 states into next, drawing the
// outbox and inbox matrices — and, for buffered exchanges, μ's target
// slices — from buf when one is provided (buf must have been bound to ex
// with BeginRun). The exchanges are contracted not to retain the inbox
// slice they receive (they copy what they need into the fresh state),
// which is what makes inbox reuse across rounds and runs sound.
func stepInto(ex model.Exchange, pat *model.Pattern, m int, states []model.State, acts []model.Action,
	next []model.State, buf *Buffers) (Stats, error) {

	n := ex.N()
	var stats Stats
	var outbox, inbox [][]model.Message
	var bex model.BufferedExchange
	if buf != nil {
		outbox, inbox = buf.outbox, buf.inbox
		bex = buf.bex
	} else {
		outbox = make([][]model.Message, n)
		inbox = make([][]model.Message, n)
		for j := range inbox {
			inbox[j] = make([]model.Message, n)
		}
	}
	for i := 0; i < n; i++ {
		if bex != nil {
			outbox[i] = bex.MessagesInto(model.AgentID(i), states[i], acts[i], outbox[i])
		} else {
			outbox[i] = ex.Messages(model.AgentID(i), states[i], acts[i])
		}
		if len(outbox[i]) != n {
			return stats, fmt.Errorf("engine: %s.Messages returned %d entries for %d agents",
				ex.Name(), len(outbox[i]), n)
		}
		for _, msg := range outbox[i] {
			if msg != nil {
				stats.MessagesSent++
				stats.BitsSent += int64(msg.Bits())
			}
		}
	}

	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			msg := outbox[i][j]
			if msg != nil && !pat.Delivered(m, model.AgentID(i), model.AgentID(j)) {
				msg = nil
			}
			inbox[j][i] = msg
			if msg != nil {
				stats.MessagesDelivered++
				stats.BitsDelivered += int64(msg.Bits())
			}
		}
	}

	for i := 0; i < n; i++ {
		next[i] = ex.Update(model.AgentID(i), states[i], acts[i], inbox[i])
		if got := next[i].Time(); got != m+1 {
			return stats, fmt.Errorf("engine: %s.Update produced time %d at time %d",
				ex.Name(), got, m+1)
		}
	}
	return stats, nil
}

// Executor abstracts how a configured execution is driven to completion.
// Sequential is the engine itself. The other implementations — core's
// CachingExecutor (answers from a result cache) and the episteme
// checker's memoizing executor — stand in for it and must return Results
// byte-identical to Sequential's.
type Executor interface {
	// Execute runs one configuration to completion. Executors that do not
	// support buffer reuse ignore buf.
	Execute(cfg Config, buf *Buffers) (*Result, error)
}

// Sequential is the deterministic single-threaded executor: Execute is
// RunBuffered.
type Sequential struct{}

// Execute runs the configuration on the sequential engine.
func (Sequential) Execute(cfg Config, buf *Buffers) (*Result, error) { return RunBuffered(cfg, buf) }

var _ Executor = Sequential{}

// MustRun is Run for call sites where a configuration error is a bug.
func MustRun(cfg Config) *Result {
	res, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// Decided reports agent i's first decision (None if it never decided).
func (r *Result) Decided(i model.AgentID) model.Value { return r.Decision[i] }

// Round reports the round in which agent i first decided, or 0.
func (r *Result) Round(i model.AgentID) int { return r.DecisionRound[i] }

// AllNonfaultyDecided reports whether every nonfaulty agent decided.
func (r *Result) AllNonfaultyDecided() bool {
	for i := 0; i < r.N; i++ {
		if r.Pattern.Nonfaulty(model.AgentID(i)) && r.Decision[i] == model.None {
			return false
		}
	}
	return true
}

// MaxDecisionRound returns the latest round in which any agent decided
// (0 if no agent decided). If nonfaultyOnly is set, faulty agents are
// ignored.
func (r *Result) MaxDecisionRound(nonfaultyOnly bool) int {
	maxRound := 0
	for i := 0; i < r.N; i++ {
		if nonfaultyOnly && !r.Pattern.Nonfaulty(model.AgentID(i)) {
			continue
		}
		if r.DecisionRound[i] > maxRound {
			maxRound = r.DecisionRound[i]
		}
	}
	return maxRound
}
