package model

import (
	"encoding"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var (
	_ encoding.TextMarshaler   = (*Pattern)(nil)
	_ encoding.TextUnmarshaler = (*Pattern)(nil)
)

func TestPatternTextRoundTrip(t *testing.T) {
	p := NewPattern(3, 3)
	p.Drop(0, 0, 1)
	p.Drop(1, 0, 2)
	p.SetFaulty(2) // faulty without drops must survive the round trip
	text, err := p.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var q Pattern
	if err := q.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if q.Key() != p.Key() {
		t.Errorf("round trip changed pattern:\n  in:  %s\n  out: %s", p, &q)
	}
}

func TestPatternTextRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPattern(4, 3)
		for k := 0; k < rng.Intn(6); k++ {
			p.Drop(rng.Intn(3), AgentID(rng.Intn(4)), AgentID(rng.Intn(4)))
		}
		text, err := p.MarshalText()
		if err != nil {
			return false
		}
		var q Pattern
		if err := q.UnmarshalText(text); err != nil {
			return false
		}
		return q.Key() == p.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternTextFormat(t *testing.T) {
	p := NewPattern(3, 2)
	p.Drop(1, 0, 2)
	text, _ := p.MarshalText()
	got := string(text)
	if got != "n=3;h=2;f=0;d=1:0:2" {
		t.Errorf("MarshalText = %q", got)
	}
}

func TestPatternUnmarshalErrors(t *testing.T) {
	cases := []string{
		"",                      // missing everything
		"n=0;h=1;f=;d=",         // bad n
		"n=3;h=-1;f=;d=",        // bad horizon
		"n=3;h=2;f=9;d=",        // faulty out of range
		"n=3;h=2;f=;d=5:0:1",    // drop round out of range
		"n=3;h=2;f=;d=0:0",      // malformed drop
		"n=3;h=2;f=x;d=",        // bad faulty id
		"n=3;h=2;f=;d=a:b:c",    // non-numeric drop
		"n=3;h=2;f=;d=;zz=1",    // unknown field
		"garbage",               // no key=value
		"n=3;h=2;f=;d=0:0:9",    // recipient out of range
		"n=3;h=2;f=;d=;n=9",     // duplicate field overriding the shape
		strings.Repeat("n=", 1), // degenerate
	}
	for _, c := range cases {
		var p Pattern
		if err := p.UnmarshalText([]byte(c)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", c)
		}
	}
}

func TestPatternUnmarshalEmptySets(t *testing.T) {
	var p Pattern
	if err := p.UnmarshalText([]byte("n=2;h=1;f=;d=")); err != nil {
		t.Fatal(err)
	}
	if p.N() != 2 || p.Horizon() != 1 || p.NumFaulty() != 0 {
		t.Errorf("unexpected pattern %s", &p)
	}
}
