package core

import "testing"

func TestStackConstructors(t *testing.T) {
	cases := []struct {
		stack Stack
		name  string
	}{
		{MustStack("min", WithN(4), WithT(1)), "min"},
		{MustStack("basic", WithN(4), WithT(1)), "basic"},
		{MustStack("fip", WithN(4), WithT(1)), "fip"},
		{MustStack("fip+pmin", WithN(4), WithT(1)), "fip+pmin"},
		{MustStack("naive", WithN(4), WithT(1)), "naive"},
	}
	for _, c := range cases {
		if c.stack.Name != c.name {
			t.Errorf("stack name %q, want %q", c.stack.Name, c.name)
		}
		if c.stack.N != 4 || c.stack.T != 1 || c.stack.Horizon() != 3 {
			t.Errorf("%s: unexpected dims n=%d t=%d h=%d", c.name, c.stack.N, c.stack.T, c.stack.Horizon())
		}
	}
}

func TestAtHorizon(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	if got := st.Horizon(); got != 3 {
		t.Fatalf("default horizon %d, want t+2 = 3", got)
	}
	if got := st.AtHorizon(5).Horizon(); got != 5 {
		t.Errorf("AtHorizon(5).Horizon() = %d, want 5", got)
	}
	if got := st.AtHorizon(5).AtHorizon(0).Horizon(); got != 3 {
		t.Errorf("AtHorizon(0) did not restore the default: got %d, want 3", got)
	}
	if got := st.AtHorizon(-1).Horizon(); got != 3 {
		t.Errorf("AtHorizon(-1) should clamp to the default: got %d, want 3", got)
	}
}
