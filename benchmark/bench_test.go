package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/spec"
)

func ns(v int) time.Duration { return time.Duration(v) }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Parent [0,100); children [10,40) and [30,60) overlap on [30,40),
	// so together they cover [10,60) = 50, and [90,120) is clipped to
	// [90,100) = 10. The grandchild [15,20) is its parent's child only.
	spans := []span{
		{ID: 1, Name: "pass", Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ns(10), End: ns(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ns(30), End: ns(60)},
		{ID: 4, Parent: 1, Name: "a", Start: ns(90), End: ns(120)},
		{ID: 5, Parent: 2, Name: "c", Start: ns(15), End: ns(20)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["a"] != 55 || byName["pass"] != 40 {
		t.Errorf("self by name = %v, want a=55 pass=40", byName)
	}
	if got := topLevelShare(spans, 1); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("top-level share = %g, want 0.6", got)
	}
}

func TestSelfTimeNestedAndDisjointChildren(t *testing.T) {
	// One child inside another covers nothing extra; disjoint children
	// add up.
	spans := []span{
		{ID: 1, Start: ns(0), End: ns(50)},
		{ID: 2, Parent: 1, Start: ns(0), End: ns(20)},
		{ID: 3, Parent: 1, Start: ns(5), End: ns(10)},
		{ID: 4, Parent: 1, Start: ns(30), End: ns(40)},
	}
	if got := selfTimes(spans)[1]; got != 20 {
		t.Errorf("self time = %d, want 20", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	called := false
	err := tr.do("x", 0, "layer", func() error { called = true; return errors.New("boom") })
	if !called || err == nil || err.Error() != "boom" {
		t.Fatalf("nil tracer: called=%v err=%v, want the call made and its error returned", called, err)
	}
}

func TestTracerRecordsParentAndTrace(t *testing.T) {
	tr := newTracer()
	root := tr.start("pass-1", 0, "pass")
	tr.do("request-7", root, "serve.check", func() error { return nil })
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Trace != "request-7" || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var buf bytes.Buffer
	if err := tr.write(&buf); err != nil || strings.Count(buf.String(), "\n") != 2 {
		t.Fatalf("write: %v, %q", err, buf.String())
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if v, err := percentile(samples, 0.50); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %g, %v; want 50", v, err)
	}
	if v, err := percentile(samples, 0.90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90 (ten samples beyond)", v, err)
	}
	for _, q := range []float64{0.95, 0.99} {
		if _, err := percentile(samples, q); err == nil {
			t.Errorf("p%g of 100 samples accepted with fewer than ten beyond it", q*100)
		}
	}
	if _, err := percentile(samples[:10], 0.5); err == nil {
		t.Error("p50 of 10 samples accepted with five beyond it")
	}
}

func TestPercentileCountsFailuresAsMissing(t *testing.T) {
	// 20 of 100 requests failed: their latency is +Inf, so p90 misses
	// any limit while p50 is unaffected.
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = 1
		if i%5 == 0 {
			samples[i] = inf
		}
	}
	if v, _ := percentile(samples, 0.90); !math.IsInf(v, 1) {
		t.Errorf("p90 with 20%% failures = %g, want +Inf", v)
	}
	if v, _ := percentile(samples, 0.50); v != 1 {
		t.Errorf("p50 with 20%% failures = %g, want 1", v)
	}
}

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, set := range []struct {
		name    string
		printed []metricDef
		listed  []metricDef
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer(), bf.PerLayer}} {
		listed := map[string]metricDef{}
		for _, d := range set.listed {
			listed[d.Name] = d
		}
		seen := map[string]bool{}
		for _, d := range set.printed {
			if !valid.MatchString(d.Name) {
				t.Errorf("%s metric %q does not match [A-Za-z0-9_.-]+", set.name, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s metric %q printed twice", set.name, d.Name)
			}
			seen[d.Name] = true
			if l, ok := listed[d.Name]; !ok {
				t.Errorf("printed %s metric %q is not in BENCHMARK.json", set.name, d.Name)
			} else if l != d {
				t.Errorf("%s metric %q: BENCHMARK.json says %+v, the benchmark prints %+v", set.name, d.Name, l, d)
			}
		}
		for name := range listed {
			if !seen[name] {
				t.Errorf("BENCHMARK.json lists %s metric %q that the benchmark never prints", set.name, name)
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, benchmark runs %q", got, workloadNames())
	}
}

func TestCollectRefusesMissingMetric(t *testing.T) {
	if _, err := collect(endToEnd, map[string]float64{"setup_s": 1}); err == nil {
		t.Error("collect accepted a run that measured only setup_s")
	}
}

func TestRefused429CountsAsFailed(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	s := &serveInstance{
		plan:    []planned{{kind: kindKnowledge, path: "/v1/knowledge", body: []byte(`{}`)}},
		clients: 1,
	}
	l := &liveServer{base: ts.URL, client: ts.Client()}
	results := s.drive(context.Background(), l, passTrace{}, func(k int) bool { return k < 1 })
	if len(results) != 1 || results[0].err == nil || !strings.Contains(results[0].err.Error(), "429") {
		t.Fatalf("results = %+v, want one request failed with 429", results)
	}
	if calls != maxRetries+1 || l.retried.Load() != maxRetries {
		t.Errorf("%d calls, %d retries; want %d calls after %d retries", calls, l.retried.Load(), maxRetries+1, maxRetries)
	}
	var tl tally
	tl.record(results[0].err)
	if tl.failed != 1 || tl.attempted != 1 {
		t.Errorf("tally = %+v, want 1 of 1 failed", tl)
	}
}

// n3Stripe returns stripe 0 of the fip n=3 sweep's 16 as RunShard
// writes it.
func n3Stripe(t *testing.T) ([]byte, *core.ShardSummary) {
	t.Helper()
	stack, err := core.NewStack("fip", core.WithN(3), core.WithT(1))
	if err != nil {
		t.Fatal(err)
	}
	src, err := sweepSource(stack)
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner(stack, core.WithSpecCheck(spec.Options{RoundBound: stack.Horizon(), ValidityAllAgents: true}))
	var buf bytes.Buffer
	sum, err := runner.RunShard(context.Background(), src, 0, serveStripes, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

func TestServeRepliesVerified(t *testing.T) {
	stream, _ := n3Stripe(t)
	s := &serveInstance{stripes: [][]byte{stream}}
	want := serve.KnowledgeResponse{Holds: true, Decided: 1, Runs: serveRunsN3, Horizon: 3}
	knowledge, _ := json.Marshal(want)
	good := []struct {
		p    planned
		body []byte
	}{
		{planned{kind: kindSweep}, stream},
		{planned{kind: kindCheck}, goldenCheckN3},
		{planned{kind: kindKnowledge, want: want}, knowledge},
	}
	for _, g := range good {
		if err := s.reply(g.p, g.body); err != nil {
			t.Errorf("%s: verified reply rejected: %v", g.p.kind, err)
		}
	}
	corrupt := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 1
		return c
	}
	wrong := want
	wrong.Holds = false
	wrongBody, _ := json.Marshal(wrong)
	for _, b := range []struct {
		p    planned
		body []byte
	}{
		{planned{kind: kindSweep}, corrupt(stream)},
		{planned{kind: kindCheck}, corrupt(goldenCheckN3)},
		{planned{kind: kindCheck}, goldenCheckN4},
		{planned{kind: kindKnowledge, want: want}, wrongBody},
	} {
		if err := s.reply(b.p, b.body); err == nil {
			t.Errorf("%s: corrupted reply accepted", b.p.kind)
		}
	}
}

func TestSweepVerifyCatchesCorruptStream(t *testing.T) {
	stream, sum := n3Stripe(t)
	records := core.StripeSize(serveRunsN3, 0, serveStripes)
	warmSum := *sum
	warmSum.Executed, warmSum.CacheHits = 0, records
	run := func(warm []byte) *stripeRun {
		return &stripeRun{records: records, cold: stream, warm: warm, coldSum: sum, warmSum: &warmSum}
	}
	s := &sweepInstance{}
	if err := s.verify(run(stream), passTrace{}); err != nil {
		t.Fatalf("intact stripe rejected: %v", err)
	}
	// Flip one digit inside a record: the record digest no longer
	// matches its content.
	bad := append([]byte(nil), stream...)
	i := bytes.Index(bad, []byte(`"sent":`))
	if i < 0 {
		t.Fatal("no record in the stream")
	}
	bad[i+len(`"sent":`)] ^= 1
	if err := s.verify(run(bad), passTrace{}); err == nil {
		t.Error("corrupted warm stream accepted")
	}
	if err := s.verify(run(stream[:len(stream)/2]), passTrace{}); err == nil {
		t.Error("truncated warm stream accepted")
	}
	short := *sum
	short.Executed = records - 1
	r := run(stream)
	r.coldSum = &short
	if err := s.verify(r, passTrace{}); err == nil {
		t.Error("cold pass that skipped an execution accepted")
	}
}
