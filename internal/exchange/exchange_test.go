package exchange

import (
	"testing"

	"repro/internal/model"
)

func TestMinStateAccessors(t *testing.T) {
	e := NewMin(3)
	s := e.Initial(0, model.One).(MinState)
	if s.Time() != 0 || s.Init() != model.One || s.Decided() != model.None || s.JustDecided() != model.None {
		t.Errorf("unexpected initial state %+v", s)
	}
}

func TestMinMessagesOnlyOnDecide(t *testing.T) {
	e := NewMin(3)
	s := e.Initial(0, model.One)
	for _, m := range e.Messages(0, s, model.Noop) {
		if m != nil {
			t.Error("noop round sent a message")
		}
	}
	out := e.Messages(0, s, model.Decide1)
	for j, m := range out {
		if m == nil {
			t.Fatalf("decide round sent no message to %d", j)
		}
		if m.Announces() != model.One || m.Bits() != 1 {
			t.Errorf("message %v: announces %v bits %d", m, m.Announces(), m.Bits())
		}
	}
}

func TestMinUpdateJDPrefersZero(t *testing.T) {
	e := NewMin(3)
	s := e.Initial(0, model.One)
	recv := []model.Message{MinMsg{V: model.One}, MinMsg{V: model.Zero}, nil}
	ns := e.Update(0, s, model.Noop, recv).(MinState)
	if ns.Time() != 1 {
		t.Errorf("time = %d, want 1", ns.Time())
	}
	if ns.JustDecided() != model.Zero {
		t.Errorf("jd = %v, want 0 (zero wins)", ns.JustDecided())
	}
}

func TestMinUpdateRecordsDecision(t *testing.T) {
	e := NewMin(2)
	s := e.Initial(0, model.Zero)
	ns := e.Update(0, s, model.Decide0, []model.Message{nil, nil}).(MinState)
	if ns.Decided() != model.Zero {
		t.Errorf("decided = %v, want 0", ns.Decided())
	}
}

func TestMinKeysDistinguishStates(t *testing.T) {
	e := NewMin(2)
	a := e.Initial(0, model.Zero)
	b := e.Initial(0, model.One)
	if a.Key() == b.Key() {
		t.Error("different inits, same key")
	}
	c := e.Update(0, a, model.Noop, []model.Message{nil, nil})
	if a.Key() == c.Key() {
		t.Error("different times, same key")
	}
}

func TestBasicInit1Broadcast(t *testing.T) {
	e := NewBasic(3)
	s := e.Initial(0, model.One)
	out := e.Messages(0, s, model.Noop)
	for _, m := range out {
		bm, ok := m.(BasicMsg)
		if !ok || bm.Kind != BasicInit1 {
			t.Fatalf("expected (init,1) broadcast, got %v", m)
		}
		if bm.Announces() != model.None {
			t.Error("(init,1) should announce nothing")
		}
		if bm.Bits() != 2 {
			t.Errorf("bits = %d, want 2", bm.Bits())
		}
	}
	// An init-0 agent stays silent on noop.
	s0 := e.Initial(0, model.Zero)
	for _, m := range e.Messages(0, s0, model.Noop) {
		if m != nil {
			t.Error("init-0 agent broadcast on noop")
		}
	}
}

func TestBasicNoInit1AfterDecisionOrJD(t *testing.T) {
	e := NewBasic(2)
	s := e.Initial(0, model.One)
	// After deciding, noop rounds are silent.
	s1 := e.Update(0, s, model.Decide1, []model.Message{nil, nil})
	for _, m := range e.Messages(0, s1, model.Noop) {
		if m != nil {
			t.Error("decided agent broadcast (init,1)")
		}
	}
	// After observing a decision (jd set), noop rounds are silent.
	s2 := e.Update(0, s, model.Noop, []model.Message{BasicMsg{Kind: BasicDecide1}, nil})
	if s2.(BasicState).JustDecided() != model.One {
		t.Fatal("jd not recorded")
	}
	for _, m := range e.Messages(0, s2, model.Noop) {
		if m != nil {
			t.Error("agent with jd set broadcast (init,1)")
		}
	}
}

func TestBasicNumOnesCounting(t *testing.T) {
	e := NewBasic(4)
	s := e.Initial(0, model.One)
	recv := []model.Message{
		BasicMsg{Kind: BasicInit1},
		BasicMsg{Kind: BasicInit1},
		nil,
		BasicMsg{Kind: BasicInit1},
	}
	ns := e.Update(0, s, model.Noop, recv).(BasicState)
	if ns.NumOnes() != 3 {
		t.Errorf("#1 = %d, want 3", ns.NumOnes())
	}
	// A decide announcement zeroes the counter.
	recv[0] = BasicMsg{Kind: BasicDecide0}
	ns = e.Update(0, s, model.Noop, recv).(BasicState)
	if ns.NumOnes() != 0 {
		t.Errorf("#1 = %d after decide announcement, want 0", ns.NumOnes())
	}
	// Deciding this round zeroes the counter.
	recv[0] = BasicMsg{Kind: BasicInit1}
	ns = e.Update(0, s, model.Decide1, recv).(BasicState)
	if ns.NumOnes() != 0 {
		t.Errorf("#1 = %d after own decision, want 0", ns.NumOnes())
	}
}

func TestBasicKeyIncludesNumOnes(t *testing.T) {
	e := NewBasic(3)
	s := e.Initial(0, model.One)
	a := e.Update(0, s, model.Noop, []model.Message{BasicMsg{Kind: BasicInit1}, nil, nil})
	b := e.Update(0, s, model.Noop, []model.Message{nil, nil, nil})
	if a.Key() == b.Key() {
		t.Error("different #1, same key")
	}
}

func TestReportInit0Broadcast(t *testing.T) {
	e := NewReport(3)
	s := e.Initial(0, model.Zero)
	for _, m := range e.Messages(0, s, model.Noop) {
		rm, ok := m.(ReportMsg)
		if !ok || rm.Kind != ReportInit0 {
			t.Fatalf("expected (init,0), got %v", m)
		}
	}
	// Crucially, the report continues after the agent decided: the late
	// report is what breaks the naive protocol.
	s1 := e.Update(0, s, model.Decide0, []model.Message{nil, nil, nil})
	for _, m := range e.Messages(0, s1, model.Noop) {
		rm, ok := m.(ReportMsg)
		if !ok || rm.Kind != ReportInit0 {
			t.Fatalf("expected post-decision (init,0), got %v", m)
		}
	}
}

func TestReportHeard0Latches(t *testing.T) {
	e := NewReport(2)
	s := e.Initial(0, model.One)
	s1 := e.Update(0, s, model.Noop, []model.Message{nil, ReportMsg{Kind: ReportInit0}})
	if !s1.(ReportState).Heard0() {
		t.Fatal("heard0 not set")
	}
	s2 := e.Update(0, s1, model.Noop, []model.Message{nil, nil})
	if !s2.(ReportState).Heard0() {
		t.Error("heard0 did not latch")
	}
	if s1.Key() == s.Key() {
		t.Error("heard0/time not reflected in key")
	}
}

func TestMessageStrings(t *testing.T) {
	cases := []struct {
		msg  model.Message
		want string
	}{
		{MinMsg{V: model.Zero}, "decide:0"},
		{BasicMsg{Kind: BasicInit1}, "(init,1)"},
		{BasicMsg{Kind: BasicDecide0}, "decide:0"},
		{BasicMsg{Kind: BasicDecide1}, "decide:1"},
		{ReportMsg{Kind: ReportInit0}, "(init,0)"},
		{ReportMsg{Kind: ReportDecide1}, "decide:1"},
	}
	for _, c := range cases {
		if got := c.msg.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.msg, got, c.want)
		}
	}
}

func TestFIPInitialState(t *testing.T) {
	e := NewFIP(3)
	s := e.Initial(1, model.One).(*FIPState)
	if s.Time() != 0 || s.Init() != model.One {
		t.Errorf("unexpected initial state %+v", s)
	}
	if s.Graph().Pref(1) != model.One {
		t.Error("own preference not recorded in graph")
	}
	if s.Graph().Pref(0) != model.None {
		t.Error("other preferences should be unknown")
	}
}

func TestFIPBroadcastsEveryRound(t *testing.T) {
	e := NewFIP(2)
	s := e.Initial(0, model.Zero)
	out := e.Messages(0, s, model.Noop)
	for _, m := range out {
		fm, ok := m.(FIPMsg)
		if !ok {
			t.Fatalf("expected FIPMsg, got %T", m)
		}
		if fm.Announces() != model.None {
			t.Error("noop round should announce nothing")
		}
	}
	out = e.Messages(0, s, model.Decide0)
	if out[1].Announces() != model.Zero {
		t.Error("decide round should announce 0")
	}
}

func TestFIPUpdateRecordsDeliveries(t *testing.T) {
	e := NewFIP(3)
	s0 := e.Initial(0, model.One).(*FIPState)
	s1 := e.Initial(1, model.Zero).(*FIPState)
	// Agent 0 receives from itself and agent 1; agent 2 silent.
	recv := []model.Message{
		FIPMsg{G: s0.Graph()},
		FIPMsg{G: s1.Graph()},
		nil,
	}
	ns := e.Update(0, s0, model.Noop, recv).(*FIPState)
	g := ns.Graph()
	if g.M() != 1 || ns.Time() != 1 {
		t.Fatalf("time/m not advanced: %d/%d", ns.Time(), g.M())
	}
	if g.Edge(0, 1, 0) != 2 { // graph.Sent
		t.Error("delivery from 1 not recorded")
	}
	if g.Edge(0, 2, 0) != 1 { // graph.NotSent
		t.Error("silence of 2 not recorded")
	}
	if g.Edge(0, 0, 0) != 2 {
		t.Error("self edge should always be Sent")
	}
	if g.Pref(1) != model.Zero {
		t.Error("merged preference from 1 lost")
	}
}

func TestFIPSelfOmissionInvisible(t *testing.T) {
	// Footnote 3: dropping one's own message changes nothing. The self
	// in-edge is labeled Sent whether or not the engine delivered it.
	e := NewFIP(2)
	s := e.Initial(0, model.One).(*FIPState)
	other := e.Initial(1, model.One).(*FIPState)
	withSelf := e.Update(0, s, model.Noop,
		[]model.Message{FIPMsg{G: s.Graph()}, FIPMsg{G: other.Graph()}})
	withoutSelf := e.Update(0, s, model.Noop,
		[]model.Message{nil, FIPMsg{G: other.Graph()}})
	if withSelf.Key() != withoutSelf.Key() {
		t.Error("self-omission changed the local state")
	}
}

func TestFIPKeyExcludesDecided(t *testing.T) {
	// Section 7's non-standard context: decided/jd are cached but not part
	// of the knowledge fingerprint.
	e := NewFIP(2)
	s := e.Initial(0, model.One)
	recv := []model.Message{FIPMsg{G: s.(*FIPState).Graph()}, nil}
	a := e.Update(0, s, model.Noop, recv)
	b := e.Update(0, s, model.Decide1, recv)
	if a.(*FIPState).Decided() == b.(*FIPState).Decided() {
		t.Fatal("cached decided should differ")
	}
	if a.Key() != b.Key() {
		t.Error("decided leaked into the FIP state key")
	}
}

// TestBufferedPathMatchesPlain drives every built-in exchange through a
// few rounds and checks the model.BufferedExchange contract: stale
// entries in the MessagesInto target are overwritten and the produced
// messages equal Messages'.
func TestBufferedPathMatchesPlain(t *testing.T) {
	exchanges := []model.BufferedExchange{NewMin(3), NewBasic(3), NewReport(3), NewFIP(3)}
	inits := []model.Value{model.One, model.Zero, model.One}
	acts := []model.Action{model.Noop, model.Decide0, model.Decide1}
	for _, ex := range exchanges {
		states := make([]model.State, 3)
		for i := range states {
			states[i] = ex.Initial(model.AgentID(i), inits[i])
		}
		out := make([]model.Message, 3)
		for i := range out {
			out[i] = MinMsg{V: model.One} // stale garbage MessagesInto must clear
		}
		for round := 0; round < 3; round++ {
			// Snapshot the synchronized round: all sends happen from the
			// round's start states.
			outboxes := make([][]model.Message, 3)
			for i := range states {
				a := acts[(i+round)%len(acts)]
				outboxes[i] = ex.Messages(model.AgentID(i), states[i], a)
				got := ex.MessagesInto(model.AgentID(i), states[i], a, out)
				for j := range outboxes[i] {
					if (outboxes[i][j] == nil) != (got[j] == nil) {
						t.Fatalf("%s: MessagesInto entry %d nil-ness differs from Messages", ex.Name(), j)
					}
					if outboxes[i][j] != nil && outboxes[i][j].String() != got[j].String() {
						t.Fatalf("%s: MessagesInto entry %d = %v, Messages = %v", ex.Name(), j, got[j], outboxes[i][j])
					}
				}
			}
			next := make([]model.State, 3)
			for i := range states {
				a := acts[(i+round)%len(acts)]
				recv := make([]model.Message, 3)
				for j := range recv {
					recv[j] = outboxes[j][i]
				}
				next[i] = ex.Update(model.AgentID(i), states[i], a, recv)
			}
			states = next
		}
	}
}
