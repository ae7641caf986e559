package experiments

import (
	"os"
	"strings"
	"testing"
)

const engineBase = `{
  "entries": [
    {"name": "fip_sweep", "stack": "fip",
     "runs": 100, "ns_per_op": 1000, "bytes_per_op": 500, "allocs_per_op": 1000},
    {"name": "min_sweep", "stack": "min",
     "runs": 100, "ns_per_op": 1200, "bytes_per_op": 900, "allocs_per_op": 4000}
  ]
}`

const epistemeBase = `{
  "entries": [
    {"name": "fip_n3_t1", "n": 3, "t": 1, "runs": 1544,
     "build_seconds": 0.02, "check_implements_seconds": 0.002, "mismatches": 0}
  ]
}`

const serveBase = `{
  "entries": [
    {"name": "mixed_min_n3_t1", "stack": "min", "n": 3, "t": 1,
     "requests": 1000, "concurrency": 32, "errors": 0, "retried_429": 0,
     "records": 9650, "requests_per_second": 3000,
     "p50_millis": 9, "p99_millis": 17}
  ]
}`

func gate(t *testing.T, base, curr string) []string {
	t.Helper()
	vs, err := GateBench([]byte(base), []byte(curr))
	if err != nil {
		t.Fatalf("GateBench: %v", err)
	}
	return vs
}

func TestGateEnginePassesWithinSlack(t *testing.T) {
	curr := strings.Replace(engineBase, `"allocs_per_op": 1000`, `"allocs_per_op": 1200`, 1)
	// +20% allocs and any wall-time swing are tolerated.
	curr = strings.Replace(curr, `"ns_per_op": 1000`, `"ns_per_op": 9000`, 1)
	if vs := gate(t, engineBase, curr); len(vs) != 0 {
		t.Fatalf("gate flagged a within-slack record: %v", vs)
	}
}

func TestGateEngineFailsOnAllocGrowth(t *testing.T) {
	curr := strings.Replace(engineBase, `"allocs_per_op": 1000`, `"allocs_per_op": 1300`, 1)
	vs := gate(t, engineBase, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "allocs_per_op") {
		t.Fatalf("gate on +30%% allocs = %v, want one allocs violation", vs)
	}
}

func TestGateEngineFailsOnMissingEntry(t *testing.T) {
	curr := `{"entries": [
    {"name": "fip_sweep", "stack": "fip",
     "runs": 100, "ns_per_op": 1000, "bytes_per_op": 500, "allocs_per_op": 1000}]}`
	vs := gate(t, engineBase, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "missing") {
		t.Fatalf("gate on a dropped entry = %v, want one missing-entry violation", vs)
	}
}

func TestGateEpistemeToleratesWallNoise(t *testing.T) {
	curr := strings.Replace(epistemeBase, `"build_seconds": 0.02`, `"build_seconds": 0.039`, 1)
	if vs := gate(t, epistemeBase, curr); len(vs) != 0 {
		t.Fatalf("gate flagged a <2x build time: %v", vs)
	}
}

func TestGateEpistemeFailsOnBuildBlowup(t *testing.T) {
	curr := strings.Replace(epistemeBase, `"build_seconds": 0.02`, `"build_seconds": 0.05`, 1)
	vs := gate(t, epistemeBase, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "build_seconds") {
		t.Fatalf("gate on a >2x build time = %v, want one build_seconds violation", vs)
	}
}

func TestGateEpistemeFailsOnMismatchesAndShape(t *testing.T) {
	curr := strings.Replace(epistemeBase, `"mismatches": 0`, `"mismatches": 3`, 1)
	curr = strings.Replace(curr, `"runs": 1544`, `"runs": 1540`, 1)
	vs := gate(t, epistemeBase, curr)
	if len(vs) != 2 {
		t.Fatalf("gate on mismatches + shape change = %v, want two violations", vs)
	}
}

func TestGateRejectsMixedKinds(t *testing.T) {
	if _, err := GateBench([]byte(engineBase), []byte(epistemeBase)); err == nil {
		t.Fatal("gate accepted an engine baseline against an episteme record")
	}
	if _, err := GateBench([]byte(`{}`), []byte(engineBase)); err == nil {
		t.Fatal("gate accepted an empty baseline")
	}
}

// TestGateAcceptsCommittedBaselines runs the gate over the repository's
// own committed records against themselves: the committed baselines must
// always pass their own gate.
func TestGateServeToleratesNoiseButNotCollapse(t *testing.T) {
	// Halved throughput and any latency swing pass...
	curr := strings.Replace(serveBase, `"requests_per_second": 3000`, `"requests_per_second": 1501`, 1)
	curr = strings.Replace(curr, `"p99_millis": 17`, `"p99_millis": 500`, 1)
	if vs := gate(t, serveBase, curr); len(vs) != 0 {
		t.Fatalf("gate flagged a within-slack serve record: %v", vs)
	}
	// ...a worse-than-2x collapse fails.
	curr = strings.Replace(serveBase, `"requests_per_second": 3000`, `"requests_per_second": 1400`, 1)
	vs := gate(t, serveBase, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "requests/s") {
		t.Fatalf("gate on collapsed throughput = %v, want one throughput violation", vs)
	}
}

func TestGateServeFailsOnErrorsShapeAndMissingEntry(t *testing.T) {
	curr := strings.Replace(serveBase, `"errors": 0`, `"errors": 3`, 1)
	vs := gate(t, serveBase, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "failed requests") {
		t.Fatalf("gate on failed requests = %v, want one errors violation", vs)
	}
	curr = strings.Replace(serveBase, `"records": 9650,`, `"records": 9651,`, 1)
	vs = gate(t, serveBase, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "changed shape") {
		t.Fatalf("gate on drifted records = %v, want one shape violation", vs)
	}
	vs = gate(t, serveBase, `{"entries": [
    {"name": "other", "requests_per_second": 3000}]}`)
	if len(vs) != 1 || !strings.Contains(vs[0], "missing") {
		t.Fatalf("gate on a dropped entry = %v, want one missing-entry violation", vs)
	}
}

func TestGateAcceptsCommittedBaselines(t *testing.T) {
	for _, path := range []string{"../../BENCH_engine.json", "../../BENCH_episteme.json", "../../BENCH_serve.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		vs, err := GateBench(data, data)
		if err != nil {
			t.Fatalf("%s vs itself: %v", path, err)
		}
		if len(vs) != 0 {
			t.Fatalf("%s fails its own gate: %v", path, vs)
		}
	}
}

func TestGateEngineZeroAllocBaselineStaysCovered(t *testing.T) {
	base := strings.Replace(engineBase, `"allocs_per_op": 1000`, `"allocs_per_op": 0`, 1)
	// Holding at zero passes...
	curr := base
	if vs := gate(t, base, curr); len(vs) != 0 {
		t.Fatalf("gate flagged a held zero-alloc baseline: %v", vs)
	}
	// ...but any allocation against a zero baseline is a regression.
	curr = strings.Replace(base, `"allocs_per_op": 0`, `"allocs_per_op": 7`, 1)
	vs := gate(t, base, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "zero-allocation") {
		t.Fatalf("gate on a regressed zero-alloc entry = %v, want one violation", vs)
	}
}

const epistemeWarmBase = `{
  "entries": [
    {"name": "fip_n5_t1_quotient_warm", "n": 5, "t": 1, "quotient": true,
     "runs": 7758, "rep_runs": 7758, "build_seconds": 0.5,
     "cold_build_seconds": 4.0, "check_implements_seconds": 0, "mismatches": 0}
  ]
}`

// TestGateEpistemeWarmCold pins the warm-cache ratio gate: the ratio is
// taken within the CURRENT record (same machine, same process), so a
// warm build past WarmColdLimit of its own cold build fails regardless
// of absolute wall time, and dropping the cold measurement fails too.
func TestGateEpistemeWarmCold(t *testing.T) {
	// Within the limit: warm 0.9s of cold 4.1s (~22%) passes even though
	// the warm time grew against the baseline's (wall noise is fine).
	curr := strings.Replace(epistemeWarmBase, `"build_seconds": 0.5`, `"build_seconds": 0.9`, 1)
	curr = strings.Replace(curr, `"cold_build_seconds": 4.0`, `"cold_build_seconds": 4.1`, 1)
	if vs := gate(t, epistemeWarmBase, curr); len(vs) != 0 {
		t.Fatalf("gate flagged a within-limit warm/cold ratio: %v", vs)
	}

	// Past the limit: warm 2.0s of cold 4.0s (50%).
	curr = strings.Replace(epistemeWarmBase, `"build_seconds": 0.5`, `"build_seconds": 2.0`, 1)
	vs := gate(t, epistemeWarmBase, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "cold build") {
		t.Fatalf("gate on a 50%% warm/cold ratio = %v, want one warm-cache violation", vs)
	}

	// Dropping the cold measurement silently un-gates the cache: flagged.
	curr = strings.Replace(epistemeWarmBase, `"cold_build_seconds": 4.0, `, ``, 1)
	vs = gate(t, epistemeWarmBase, curr)
	if len(vs) != 1 || !strings.Contains(vs[0], "no longer measures a cold build") {
		t.Fatalf("gate on a dropped cold measurement = %v, want one violation", vs)
	}
}
