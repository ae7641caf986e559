// The run ledger: the one encoding of an executed run's observable
// outcome — the scenario restated, who decided what and when, every
// agent's per-round action, and the traffic stats. Outcome-stream
// records, result-cache payloads, and episteme shard indexes all carry
// it; NewRunLedger is its one encoder, Restore its one inverse, and
// Check its one shape-and-range check, so the formats cannot drift apart
// on what a run's outcome is.

package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/model"
)

// OutcomeStats mirrors engine.Stats with stable JSON keys.
type OutcomeStats struct {
	MessagesSent      int   `json:"sent"`
	MessagesDelivered int   `json:"delivered"`
	BitsSent          int64 `json:"bitsSent"`
	BitsDelivered     int64 `json:"bitsDelivered"`
}

// RunDecisions is the head every run encoding embeds: the scenario
// restated and the decision ledger.
type RunDecisions struct {
	// Pattern is the failure pattern in model.Pattern's text form.
	Pattern string `json:"pattern"`
	// Inits holds the initial preferences as 0/1.
	Inits []int `json:"inits"`
	// Decisions[i] is the value agent i decided (-1 for none); Rounds[i]
	// the round it first decided in (0 for never).
	Decisions []int `json:"decisions"`
	Rounds    []int `json:"rounds"`
}

// RunLedger is one executed run reduced to its observable outcome; state
// traces stay in the process that ran them.
type RunLedger struct {
	RunDecisions
	// Actions[m][i] is agent i's recorded action at time m.
	Actions [][]int `json:"actions"`
	// Stats aggregates the run's message traffic.
	Stats OutcomeStats `json:"stats"`
}

// encodeDecisions flattens the fields every encoding carries.
func encodeDecisions(res *engine.Result) (RunDecisions, OutcomeStats, error) {
	text, err := res.Pattern.MarshalText()
	if err != nil {
		return RunDecisions{}, OutcomeStats{}, fmt.Errorf("core: encoding pattern: %w", err)
	}
	d := RunDecisions{
		Pattern:   string(text),
		Inits:     make([]int, res.N),
		Decisions: make([]int, res.N),
		Rounds:    make([]int, res.N),
	}
	for i := 0; i < res.N; i++ {
		d.Inits[i] = int(res.Inits[i])
		d.Decisions[i] = int(res.Decision[i])
		d.Rounds[i] = res.DecisionRound[i]
	}
	stats := OutcomeStats{
		MessagesSent:      res.Stats.MessagesSent,
		MessagesDelivered: res.Stats.MessagesDelivered,
		BitsSent:          res.Stats.BitsSent,
		BitsDelivered:     res.Stats.BitsDelivered,
	}
	return d, stats, nil
}

// NewRunLedger encodes a completed run.
func NewRunLedger(res *engine.Result) (RunLedger, error) {
	d, stats, err := encodeDecisions(res)
	if err != nil {
		return RunLedger{}, err
	}
	l := RunLedger{RunDecisions: d, Actions: make([][]int, len(res.Actions)), Stats: stats}
	for m, acts := range res.Actions {
		row := make([]int, len(acts))
		for i, a := range acts {
			row[i] = int(a)
		}
		l.Actions[m] = row
	}
	return l, nil
}

// Check reports the first way the ledger fails to describe a run of n
// agents over horizon rounds — a wrong length, or a value outside its
// field's range — in an error naming the field. Ledgers read from disk
// or the wire pass Check before Restore turns them into model values.
func (l *RunLedger) Check(n, horizon int) error {
	for _, f := range []struct {
		name string
		vals []int
		lo   int
		hi   int
	}{
		{"inits", l.Inits, int(model.Zero), int(model.One)},
		{"decisions", l.Decisions, int(model.None), int(model.One)},
		{"rounds", l.Rounds, 0, horizon},
	} {
		if len(f.vals) != n {
			return fmt.Errorf("%s has %d entries, want %d", f.name, len(f.vals), n)
		}
		for i, v := range f.vals {
			if v < f.lo || v > f.hi {
				return fmt.Errorf("%s[%d] = %d outside [%d, %d]", f.name, i, v, f.lo, f.hi)
			}
		}
	}
	if len(l.Actions) != horizon {
		return fmt.Errorf("actions has %d rows, want %d", len(l.Actions), horizon)
	}
	for m, row := range l.Actions {
		if len(row) != n {
			return fmt.Errorf("actions[%d] has %d entries, want %d", m, len(row), n)
		}
		for i, a := range row {
			if a < int(model.Noop) || a > int(model.Decide1) {
				return fmt.Errorf("actions[%d][%d] = %d outside [%d, %d]", m, i, a, int(model.Noop), int(model.Decide1))
			}
		}
	}
	return nil
}

// Restore rebuilds the engine.Result the ledger encodes over the decoded
// pattern, minus the state trace (States is nil: sweeps, spec checks, and
// the knowledge checkers' interned index never read it). The ledger must
// have passed Check(pat.N(), horizon).
func (l *RunLedger) Restore(pat *model.Pattern, horizon int) *engine.Result {
	n := pat.N()
	res := &engine.Result{
		N:             n,
		Horizon:       horizon,
		Pattern:       pat,
		Inits:         make([]model.Value, n),
		Actions:       make([][]model.Action, len(l.Actions)),
		Decision:      make([]model.Value, n),
		DecisionRound: make([]int, n),
		Stats: engine.Stats{
			MessagesSent:      l.Stats.MessagesSent,
			MessagesDelivered: l.Stats.MessagesDelivered,
			BitsSent:          l.Stats.BitsSent,
			BitsDelivered:     l.Stats.BitsDelivered,
		},
	}
	for i := 0; i < n; i++ {
		res.Inits[i] = model.Value(l.Inits[i])
		res.Decision[i] = model.Value(l.Decisions[i])
		res.DecisionRound[i] = l.Rounds[i]
	}
	for m, row := range l.Actions {
		acts := make([]model.Action, n)
		for i, a := range row {
			acts[i] = model.Action(a)
		}
		res.Actions[m] = acts
	}
	return res
}
