package experiments

import (
	"encoding/json"
	"fmt"
)

// The bench-regression gate: CI regenerates BENCH_engine.ci.json,
// BENCH_episteme.ci.json, and BENCH_serve.ci.json on every run and
// diffs them against the committed BENCH_*.json baselines. The gate is strict where the
// repository's perf work lives and tolerant where CI runners are noisy:
// allocations per op are deterministic, so any growth beyond slack is a
// real regression, while wall time on shared runners can swing 2×
// without meaning anything — only a greater-than-2× build-time blowup
// fails.

// AllocGrowthLimit is the allowed allocs_per_op growth over the
// committed baseline (25%).
const AllocGrowthLimit = 1.25

// SecondsGrowthLimit is the allowed wall-time growth over the committed
// baseline (2×) — deliberately loose, CI wall time is noisy.
const SecondsGrowthLimit = 2.0

// WarmColdLimit is the largest fraction of its own cold build a
// warm-cache entry's build_seconds may take (warm ≤ 0.25 × cold). The
// ratio is within one record — both sides ran on the same machine in
// the same process — so unlike raw wall time it is noise-robust and
// gated strictly.
const WarmColdLimit = 0.25

// GateBench diffs a freshly measured perf record against the committed
// record of the same kind (both as raw JSON) and returns one line per
// regression; empty means the gate passes. The record kind — engine
// (allocs_per_op entries), episteme (build_seconds entries), or serve
// (requests_per_second entries) — is detected from the baseline's entry
// fields. Engine entries fail on
// more than AllocGrowthLimit allocs_per_op growth, matched by name;
// wall time is not gated. Episteme entries fail on more than
// SecondsGrowthLimit build_seconds growth or on any mismatches. An
// entry present in the baseline but missing from the current record is
// a violation: a silently dropped workload would otherwise pass
// forever.
func GateBench(baseline, current []byte) ([]string, error) {
	kind, err := detectBenchKind(baseline)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	currentKind, err := detectBenchKind(current)
	if err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	if kind != currentKind {
		return nil, fmt.Errorf("baseline is a %s record, current a %s record", kind, currentKind)
	}
	switch kind {
	case "engine":
		return gateEngine(baseline, current)
	case "serve":
		return gateServe(baseline, current)
	default:
		return gateEpisteme(baseline, current)
	}
}

// detectBenchKind probes a record's entries for the schema-identifying
// field.
func detectBenchKind(data []byte) (string, error) {
	var probe struct {
		Entries []map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", fmt.Errorf("not a perf record: %w", err)
	}
	if len(probe.Entries) == 0 {
		return "", fmt.Errorf("perf record has no entries")
	}
	if _, ok := probe.Entries[0]["allocs_per_op"]; ok {
		return "engine", nil
	}
	if _, ok := probe.Entries[0]["build_seconds"]; ok {
		return "episteme", nil
	}
	if _, ok := probe.Entries[0]["requests_per_second"]; ok {
		return "serve", nil
	}
	return "", fmt.Errorf("perf record entries carry none of allocs_per_op, build_seconds, requests_per_second")
}

func gateEngine(baseline, current []byte) ([]string, error) {
	var base, curr EngineBench
	if err := json.Unmarshal(baseline, &base); err != nil {
		return nil, fmt.Errorf("baseline engine record: %w", err)
	}
	if err := json.Unmarshal(current, &curr); err != nil {
		return nil, fmt.Errorf("current engine record: %w", err)
	}
	got := make(map[string]EngineBenchEntry, len(curr.Entries))
	for _, e := range curr.Entries {
		got[e.Name] = e
	}
	var violations []string
	for _, b := range base.Entries {
		c, ok := got[b.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("engine %s: entry missing from the current record", b.Name))
			continue
		}
		switch {
		case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
			// A zero-allocation baseline admits no slack: any allocation
			// is a regression.
			violations = append(violations,
				fmt.Sprintf("engine %s: allocs_per_op %d regressed from a zero-allocation baseline",
					b.Name, c.AllocsPerOp))
		case float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*AllocGrowthLimit:
			violations = append(violations,
				fmt.Sprintf("engine %s: allocs_per_op %d exceeds baseline %d by more than %.0f%%",
					b.Name, c.AllocsPerOp, b.AllocsPerOp, (AllocGrowthLimit-1)*100))
		}
	}
	return violations, nil
}

func gateEpisteme(baseline, current []byte) ([]string, error) {
	var base, curr EpistemeBench
	if err := json.Unmarshal(baseline, &base); err != nil {
		return nil, fmt.Errorf("baseline episteme record: %w", err)
	}
	if err := json.Unmarshal(current, &curr); err != nil {
		return nil, fmt.Errorf("current episteme record: %w", err)
	}
	got := make(map[string]EpistemeBenchEntry, len(curr.Entries))
	for _, e := range curr.Entries {
		got[e.Name] = e
	}
	var violations []string
	for _, b := range base.Entries {
		c, ok := got[b.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("episteme %s: entry missing from the current record", b.Name))
			continue
		}
		if c.Mismatches != 0 {
			violations = append(violations,
				fmt.Sprintf("episteme %s: %d implementation mismatches (theorems must machine-check)", b.Name, c.Mismatches))
		}
		// Warm-cache entries are gated on their within-record warm/cold
		// ratio below, not on absolute warm wall time (a sub-second warm
		// build can double on a noisy runner without meaning anything);
		// their cold build takes the absolute check instead.
		buildRef, buildCur := b.BuildSeconds, c.BuildSeconds
		if b.ColdBuildSeconds > 0 {
			buildRef, buildCur = b.ColdBuildSeconds, c.ColdBuildSeconds
		}
		if buildRef > 0 && buildCur > buildRef*SecondsGrowthLimit {
			violations = append(violations,
				fmt.Sprintf("episteme %s: build_seconds %.4f exceeds baseline %.4f by more than %.0f×",
					b.Name, buildCur, buildRef, SecondsGrowthLimit))
		}
		if b.Runs > 0 && c.Runs != b.Runs {
			violations = append(violations,
				fmt.Sprintf("episteme %s: %d runs, baseline enumerated %d (the sweep changed shape)",
					b.Name, c.Runs, b.Runs))
		}
		if b.RepRuns > 0 && c.RepRuns != b.RepRuns {
			violations = append(violations,
				fmt.Sprintf("episteme %s: %d orbit representatives, baseline enumerated %d (the symmetry quotient changed shape)",
					b.Name, c.RepRuns, b.RepRuns))
		}
		if b.ColdBuildSeconds > 0 {
			switch {
			case c.ColdBuildSeconds <= 0:
				violations = append(violations,
					fmt.Sprintf("episteme %s: entry no longer measures a cold build (the warm-cache workload was dropped)", b.Name))
			case c.BuildSeconds > c.ColdBuildSeconds*WarmColdLimit:
				violations = append(violations,
					fmt.Sprintf("episteme %s: warm build_seconds %.4f exceeds %.0f%% of its cold build %.4f (the result cache stopped paying)",
						b.Name, c.BuildSeconds, WarmColdLimit*100, c.ColdBuildSeconds))
			}
		}
	}
	return violations, nil
}

// gateServe diffs serving-layer records: every workload must run
// error-free (responses are verified, so an error is a correctness
// failure, not noise), its verified sweep records must match the
// baseline exactly (the mix is deterministic — a drift means the served
// stream changed shape), and throughput may degrade at most
// SecondsGrowthLimit-fold (the same noise allowance wall time gets
// elsewhere). Latency percentiles are reported but not gated — shared
// runners swing them too hard to gate without flakes.
func gateServe(baseline, current []byte) ([]string, error) {
	var base, curr ServeBench
	if err := json.Unmarshal(baseline, &base); err != nil {
		return nil, fmt.Errorf("baseline serve record: %w", err)
	}
	if err := json.Unmarshal(current, &curr); err != nil {
		return nil, fmt.Errorf("current serve record: %w", err)
	}
	got := make(map[string]ServeBenchEntry, len(curr.Entries))
	for _, e := range curr.Entries {
		got[e.Name] = e
	}
	var violations []string
	for _, b := range base.Entries {
		c, ok := got[b.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("serve %s: entry missing from the current record", b.Name))
			continue
		}
		if c.Errors != 0 {
			violations = append(violations,
				fmt.Sprintf("serve %s: %d failed requests (served responses must verify)", b.Name, c.Errors))
		}
		if b.Records > 0 && c.Records != b.Records {
			violations = append(violations,
				fmt.Sprintf("serve %s: %d verified sweep records, baseline saw %d (the served stream changed shape)",
					b.Name, c.Records, b.Records))
		}
		if b.RequestsPerSecond > 0 && c.RequestsPerSecond < b.RequestsPerSecond/SecondsGrowthLimit {
			violations = append(violations,
				fmt.Sprintf("serve %s: %.0f requests/s is less than 1/%.0f of baseline %.0f",
					b.Name, c.RequestsPerSecond, SecondsGrowthLimit, b.RequestsPerSecond))
		}
	}
	return violations, nil
}
