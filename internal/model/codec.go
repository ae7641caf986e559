package model

import (
	"fmt"
	"strconv"
	"strings"
)

// MarshalText encodes the pattern in a compact, human-editable form:
//
//	n=<agents>;h=<horizon>;f=<faulty ids>;d=<m:i:j drops>
//
// e.g. "n=3;h=3;f=0;d=0:0:1,0:0:2,1:0:2". It implements
// encoding.TextMarshaler, so patterns embed directly in flags, JSON, and
// config files.
func (p *Pattern) MarshalText() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d;h=%d;f=", p.n, p.horizon)
	first := true
	for i := 0; i < p.n; i++ {
		if p.faulty[i] {
			if !first {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(i))
			first = false
		}
	}
	b.WriteString(";d=")
	first = true
	for m := 0; m < p.horizon; m++ {
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				if !p.Delivered(m, AgentID(i), AgentID(j)) {
					if !first {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%d:%d:%d", m, i, j)
					first = false
				}
			}
		}
	}
	return []byte(b.String()), nil
}

// UnmarshalText decodes the MarshalText form, replacing the receiver's
// contents. It implements encoding.TextUnmarshaler.
func (p *Pattern) UnmarshalText(text []byte) error {
	var n, h int
	var faulty []int
	type drop struct{ m, i, j int }
	var drops []drop
	var seen [4]bool // fields n, h, f, d

	for _, field := range strings.Split(string(text), ";") {
		k, v, found := strings.Cut(field, "=")
		if !found {
			return fmt.Errorf("model: bad pattern field %q", field)
		}
		// A repeated field would let a later n or h override the shape a
		// reader checked in the text's canonical prefix.
		if f := strings.Index("nhfd", k); len(k) == 1 && f >= 0 {
			if seen[f] {
				return fmt.Errorf("model: duplicate pattern field %q", k)
			}
			seen[f] = true
		}
		switch k {
		case "n":
			x, err := strconv.Atoi(v)
			if err != nil || x <= 0 {
				return fmt.Errorf("model: bad agent count %q", v)
			}
			n = x
		case "h":
			x, err := strconv.Atoi(v)
			if err != nil || x < 0 {
				return fmt.Errorf("model: bad horizon %q", v)
			}
			h = x
		case "f":
			if v == "" {
				continue
			}
			for _, part := range strings.Split(v, ",") {
				x, err := strconv.Atoi(part)
				if err != nil {
					return fmt.Errorf("model: bad faulty id %q", part)
				}
				faulty = append(faulty, x)
			}
		case "d":
			if v == "" {
				continue
			}
			for _, part := range strings.Split(v, ",") {
				nums := strings.Split(part, ":")
				if len(nums) != 3 {
					return fmt.Errorf("model: bad drop %q", part)
				}
				var d drop
				var err error
				if d.m, err = strconv.Atoi(nums[0]); err != nil {
					return fmt.Errorf("model: bad drop %q", part)
				}
				if d.i, err = strconv.Atoi(nums[1]); err != nil {
					return fmt.Errorf("model: bad drop %q", part)
				}
				if d.j, err = strconv.Atoi(nums[2]); err != nil {
					return fmt.Errorf("model: bad drop %q", part)
				}
				drops = append(drops, d)
			}
		default:
			return fmt.Errorf("model: unknown pattern field %q", k)
		}
	}
	if n == 0 {
		return fmt.Errorf("model: pattern text missing n")
	}
	q := NewPattern(n, h)
	for _, f := range faulty {
		if f < 0 || f >= n {
			return fmt.Errorf("model: faulty id %d out of range", f)
		}
		q.SetFaulty(AgentID(f))
	}
	for _, d := range drops {
		if d.m < 0 || d.m >= h || d.i < 0 || d.i >= n || d.j < 0 || d.j >= n {
			return fmt.Errorf("model: drop (%d,%d,%d) out of range", d.m, d.i, d.j)
		}
		q.Drop(d.m, AgentID(d.i), AgentID(d.j))
	}
	*p = *q
	return nil
}
