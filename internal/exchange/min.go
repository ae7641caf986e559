package exchange

import (
	"strconv"
	"strings"

	"repro/internal/model"
)

// MinMsg is an Emin message: the single bit an agent broadcasts in the
// round it decides.
type MinMsg struct {
	// V is the decided value.
	V model.Value
}

// Announces reports the decision the message carries (class M0 or M1).
func (m MinMsg) Announces() model.Value { return m.V }

// Bits is 1: the message is a single bit.
func (m MinMsg) Bits() int { return 1 }

// String renders the message.
func (m MinMsg) String() string { return "decide:" + m.V.String() }

// MinState is the Emin local state ⟨time, init, decided, jd⟩.
type MinState struct {
	time    int
	init    model.Value
	decided model.Value
	jd      model.Value
}

// Time returns the state's time component.
func (s MinState) Time() int { return s.time }

// Init returns the agent's initial preference.
func (s MinState) Init() model.Value { return s.init }

// Decided returns the recorded decision, or None.
func (s MinState) Decided() model.Value { return s.decided }

// JustDecided returns the paper's jd component.
func (s MinState) JustDecided() model.Value { return s.jd }

// Key returns the canonical fingerprint of the state.
func (s MinState) Key() string {
	return minKey("min", s.time, s.init, s.decided, s.jd)
}

// minKey builds a canonical key for the simple tuple states.
func minKey(tag string, time int, vs ...model.Value) string {
	var b strings.Builder
	b.WriteString(tag)
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(time))
	for _, v := range vs {
		b.WriteByte(':')
		b.WriteString(v.String())
	}
	return b.String()
}

// Min is the minimal information-exchange protocol Emin(n).
type Min struct {
	n       int
	initial [2]model.State
}

// NewMin returns Emin for n agents.
func NewMin(n int) *Min {
	if n <= 0 {
		panic("exchange: NewMin with n <= 0")
	}
	e := &Min{n: n}
	// The two possible time-0 states, interned so Initial never boxes on
	// the sweep hot path (states are immutable values).
	e.initial[0] = MinState{init: model.Zero, decided: model.None, jd: model.None}
	e.initial[1] = MinState{init: model.One, decided: model.None, jd: model.None}
	return e
}

// Name returns "Emin".
func (e *Min) Name() string { return "Emin" }

// N is the number of agents.
func (e *Min) N() int { return e.n }

// Initial returns ⟨0, init, ⊥, ⊥⟩.
func (e *Min) Initial(_ model.AgentID, init model.Value) model.State {
	if init.IsSet() {
		return e.initial[init]
	}
	return MinState{init: init, decided: model.None, jd: model.None}
}

// Messages broadcasts the decided bit in a deciding round and stays silent
// otherwise (μ of Emin).
func (e *Min) Messages(i model.AgentID, s model.State, a model.Action) []model.Message {
	return e.MessagesInto(i, s, a, make([]model.Message, e.n))
}

// MessagesInto is Messages broadcasting into the caller's slice.
func (e *Min) MessagesInto(_ model.AgentID, _ model.State, a model.Action, out []model.Message) []model.Message {
	var msg model.Message
	if d := a.Decision(); d.IsSet() {
		msg = MinMsg{V: d}
	}
	for j := range out {
		out[j] = msg
	}
	return out
}

// Update advances time, records the decision taken this round, and sets jd
// from received decide announcements, preferring 0 (the program tests the
// 0 branch first).
func (e *Min) Update(_ model.AgentID, s model.State, a model.Action, received []model.Message) model.State {
	st := s.(MinState)
	st.time++
	if d := a.Decision(); d.IsSet() {
		st.decided = d
	}
	st.jd = announcedValue(received)
	return st
}

// announcedValue extracts the jd observation from a round's messages:
// Zero if any message announces 0, else One if any announces 1, else None.
func announcedValue(received []model.Message) model.Value {
	jd := model.None
	for _, m := range received {
		if m == nil {
			continue
		}
		switch m.Announces() {
		case model.Zero:
			return model.Zero
		case model.One:
			jd = model.One
		}
	}
	return jd
}
