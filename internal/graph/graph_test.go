package graph

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(1, 3)
	if g.Owner() != 1 || g.N() != 3 || g.M() != 0 {
		t.Fatalf("owner=%d n=%d m=%d", g.Owner(), g.N(), g.M())
	}
	for j := 0; j < 3; j++ {
		if g.Pref(model.AgentID(j)) != model.None {
			t.Errorf("pref[%d] = %v, want ?", j, g.Pref(model.AgentID(j)))
		}
	}
	if g.Edge(0, 0, 1) != Unknown {
		t.Error("edge in empty graph should be Unknown")
	}
}

func TestExtendAndSetEdge(t *testing.T) {
	g := New(0, 2)
	g.Extend()
	if g.M() != 1 {
		t.Fatalf("M = %d after Extend", g.M())
	}
	g.SetEdge(0, 0, 1, Sent)
	g.SetEdge(0, 1, 0, NotSent)
	if g.Edge(0, 0, 1) != Sent || g.Edge(0, 1, 0) != NotSent {
		t.Error("labels not recorded")
	}
	// Unknown writes are ignored, re-writing the same label is fine.
	g.SetEdge(0, 0, 1, Unknown)
	g.SetEdge(0, 0, 1, Sent)
	if g.Edge(0, 0, 1) != Sent {
		t.Error("label lost after redundant writes")
	}
}

func TestSetEdgeConflictPanics(t *testing.T) {
	g := New(0, 2)
	g.Extend()
	g.SetEdge(0, 0, 1, Sent)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting SetEdge did not panic")
		}
	}()
	g.SetEdge(0, 0, 1, NotSent)
}

func TestSetPrefConflictPanics(t *testing.T) {
	g := New(0, 2)
	g.SetPref(1, model.Zero)
	g.SetPref(1, model.Zero) // same value is fine
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting SetPref did not panic")
		}
	}()
	g.SetPref(1, model.One)
}

func TestMerge(t *testing.T) {
	g := New(0, 3)
	g.Extend()
	g.SetPref(0, model.One)
	g.SetEdge(0, 1, 0, Sent)

	h := New(1, 3)
	h.Extend()
	h.SetPref(1, model.Zero)
	h.SetEdge(0, 2, 1, NotSent)

	g.Merge(h)
	if g.Pref(1) != model.Zero {
		t.Error("merged preference lost")
	}
	if g.Edge(0, 2, 1) != NotSent {
		t.Error("merged edge label lost")
	}
	if g.Edge(0, 1, 0) != Sent {
		t.Error("own edge label lost in merge")
	}
}

func TestMergeShorterGraph(t *testing.T) {
	g := New(0, 2)
	g.Extend()
	g.Extend()
	h := New(1, 2)
	h.Extend()
	h.SetEdge(0, 0, 1, Sent)
	g.Merge(h) // h covers fewer rounds: fine
	if g.Edge(0, 0, 1) != Sent {
		t.Error("merge from shorter graph lost label")
	}
}

func TestMergeFromFuturePanics(t *testing.T) {
	g := New(0, 2)
	h := New(1, 2)
	h.Extend()
	defer func() {
		if recover() == nil {
			t.Fatal("merge from future graph did not panic")
		}
	}()
	g.Merge(h)
}

func TestCloneIndependence(t *testing.T) {
	g := New(0, 2)
	g.Extend()
	g.SetPref(0, model.One)
	h := g.Clone()
	h.SetEdge(0, 0, 1, Sent)
	if g.Edge(0, 0, 1) != Unknown {
		t.Error("mutating clone affected original")
	}
	if h.Owner() != 0 {
		t.Error("clone changed owner")
	}
	h2 := g.CloneFor(1)
	if h2.Owner() != 1 {
		t.Error("CloneFor did not set owner")
	}
	// CloneExtended is Clone followed by Extend, in memory of its own.
	e := g.CloneExtended()
	want := g.Clone()
	want.Extend()
	if e.Key() != want.Key() {
		t.Errorf("CloneExtended key %q, Clone+Extend key %q", e.Key(), want.Key())
	}
	e.SetEdge(0, 1, 0, NotSent)
	e.SetEdge(1, 0, 1, Sent)
	e.SetPref(1, model.Zero)
	if g.Edge(0, 1, 0) != Unknown || g.M() != 1 || g.Pref(1).IsSet() {
		t.Error("mutating CloneExtended's copy affected original")
	}
}

func TestKeyDistinguishes(t *testing.T) {
	g := New(0, 2)
	g.Extend()
	h := g.Clone()
	if g.Key() != h.Key() {
		t.Error("equal graphs have different keys")
	}
	h.SetEdge(0, 1, 0, Sent)
	if g.Key() == h.Key() {
		t.Error("different labels, same key")
	}
	i := g.Clone()
	i.SetPref(1, model.Zero)
	if g.Key() == i.Key() {
		t.Error("different prefs, same key")
	}
	j := g.CloneFor(1)
	if g.Key() == j.Key() {
		t.Error("different owner, same key")
	}
}

func TestBits(t *testing.T) {
	g := New(0, 4)
	if g.Bits() != 2*4 {
		t.Errorf("time-0 bits = %d, want 8", g.Bits())
	}
	g.Extend()
	g.Extend()
	// 2 * n² * m + 2n = 2*16*2 + 8 = 72.
	if g.Bits() != 72 {
		t.Errorf("bits = %d, want 72", g.Bits())
	}
}

func TestStringContainsLabels(t *testing.T) {
	g := New(0, 2)
	g.Extend()
	g.SetEdge(0, 1, 0, Sent)
	if s := g.String(); !strings.Contains(s, "1→0:1") {
		t.Errorf("String() = %q missing label", s)
	}
	if NotSent.String() != "0" || Sent.String() != "1" || Unknown.String() != "?" {
		t.Error("unexpected label strings")
	}
}

// buildRound1 constructs agent 1's view after one round of a 3-agent
// system where agent 0 (init 0) delivered to 1, and agent 2 stayed silent.
func buildRound1(t *testing.T) *Graph {
	t.Helper()
	g := New(1, 3)
	g.SetPref(1, model.One)
	g.Extend()
	g.SetEdge(0, 0, 1, Sent)
	g.SetEdge(0, 1, 1, Sent)
	g.SetEdge(0, 2, 1, NotSent)
	g.SetPref(0, model.Zero) // learned from 0's graph
	return g
}

func TestReachTo(t *testing.T) {
	g := buildRound1(t)
	reach := g.ReachTo(1, 1)
	want := map[[2]int]bool{
		{0, 0}: true,  // 0 delivered to 1
		{1, 0}: true,  // self step
		{2, 0}: false, // silent
		{1, 1}: true,  // target
		{0, 1}: false,
		{2, 1}: false,
	}
	for k, w := range want {
		if reach[k[0]][k[1]] != w {
			t.Errorf("reach[%d][%d] = %v, want %v", k[0], k[1], reach[k[0]][k[1]], w)
		}
	}
}

func TestReachToBoundsPanic(t *testing.T) {
	g := New(0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("ReachTo out of range did not panic")
		}
	}()
	g.ReachTo(0, 5)
}

func TestRefFaultyKnown(t *testing.T) {
	g := buildRound1(t)
	r := NewRef(1, g)
	got := r.FaultyKnown(1, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("FaultyKnown(1,1) = %v, want [2]", got)
	}
	if len(r.FaultyKnown(1, 0)) != 0 {
		t.Error("FaultyKnown at time 0 should be empty")
	}
}

func TestRefDecisionSimpleChain(t *testing.T) {
	g := buildRound1(t)
	r := NewRef(1, g)
	// Agent 0 had init 0, so it decided 0 at time 0 (cond0).
	a, known := r.Decision(0, 0)
	if !known || a != model.Decide0 {
		t.Errorf("Decision(0,0) = %v,%v, want decide(0),true", a, known)
	}
	// Agent 2's view never reached agent 1.
	if _, known := r.Decision(2, 0); known {
		t.Error("Decision(2,0) should be unknown")
	}
	// The owner heard 0's decision in round 1 → cond0 → decide 0 now.
	if got := r.OwnerAction(); got != model.Decide0 {
		t.Errorf("OwnerAction = %v, want decide(0)", got)
	}
	// And it has not decided before time 1.
	if v := r.Decided(1, 1); v != model.None {
		t.Errorf("Decided(1,1) = %v, want ⊥", v)
	}
}

func TestRefKnowsValue(t *testing.T) {
	g := buildRound1(t)
	r := NewRef(1, g)
	if !r.KnowsValue(1, 1, model.Zero) {
		t.Error("owner should know a 0 exists")
	}
	if !r.KnowsValue(1, 1, model.One) {
		t.Error("owner should know a 1 exists (its own)")
	}
	if r.KnowsValue(2, 0, model.Zero) {
		t.Error("silent agent's time-0 view cannot be known to contain a 0")
	}
}

func TestRefCommonVNeedsTwoRounds(t *testing.T) {
	g := buildRound1(t)
	r := NewRef(1, g)
	if r.CommonV(model.Zero, 1, 0) || r.CommonV(model.One, 1, 0) {
		t.Error("common_v cannot hold at time 0")
	}
	// At time 1 the pooled time-0 knowledge is empty, so |D| != t.
	if r.CommonV(model.Zero, 1, 1) || r.CommonV(model.One, 1, 1) {
		t.Error("common_v cannot hold at time 1")
	}
}

func TestNewRefValidation(t *testing.T) {
	g := New(0, 3)
	for _, bad := range []int{-1, 3, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRef(t=%d, n=3) did not panic", bad)
				}
			}()
			NewRef(bad, g)
		}()
	}
}

func TestKeyCacheInvalidation(t *testing.T) {
	g := New(0, 3)
	k0 := g.Key()
	if g.Key() != k0 {
		t.Fatal("cached key differs from first computation")
	}
	g.SetPref(1, model.One)
	k1 := g.Key()
	if k1 == k0 {
		t.Fatal("SetPref did not invalidate the key cache")
	}
	g.Extend()
	k2 := g.Key()
	if k2 == k1 {
		t.Fatal("Extend did not invalidate the key cache")
	}
	g.SetEdge(0, 0, 1, Sent)
	k3 := g.Key()
	if k3 == k2 {
		t.Fatal("SetEdge did not invalidate the key cache")
	}
	// Clone shares content, so it may share the cached key; CloneFor
	// changes the owner, so its key must differ.
	if g.Clone().Key() != k3 {
		t.Error("Clone key differs from the original")
	}
	if g.CloneFor(2).Key() == k3 {
		t.Error("CloneFor key should differ (owner is part of the fingerprint)")
	}
	// Re-setting an already-known label must not change the key.
	g.SetEdge(0, 0, 1, Sent)
	if g.Key() != k3 {
		t.Error("idempotent SetEdge changed the key")
	}
}
