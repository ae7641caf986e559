package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call from the benchmark into one
// layer's public function, or a workload pass or HTTP request that
// encloses such calls. Times are offsets from the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Trace  string        `json:"trace"`  // shared by one workload pass or one HTTP request
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced passes share the traced
// code path at the cost of a nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (tr *tracer) start(trace string, parent int, name string) int {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(tr.spans)
}

// end closes the span with the given id.
func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// do runs fn inside a span.
func (tr *tracer) do(trace string, parent int, name string, fn func() error) error {
	id := tr.start(trace, parent, name)
	defer tr.end(id)
	return fn()
}

// snapshot returns a copy of the spans recorded so far.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// write emits the spans as JSON lines.
func (tr *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range tr.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// covered returns the length of the union of the intervals, each
// clipped to [lo, hi].
func covered(intervals []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range intervals {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.duration() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// selfByName sums self time per span name over the given spans.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// topLevelShare is the share of the root span's wall time that its
// direct children cover.
func topLevelShare(spans []span, root int) float64 {
	var r span
	var kids []span
	for _, s := range spans {
		switch {
		case s.ID == root:
			r = s
		case s.Parent == root:
			kids = append(kids, s)
		}
	}
	if r.duration() <= 0 {
		return 0
	}
	return float64(covered(kids, r.Start, r.End)) / float64(r.duration())
}
