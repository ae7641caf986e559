// Command benchmark is the repository's benchmark: four workloads that
// each stress a different layer of the pipeline, every output verified.
//
//	bash benchmark/run.sh --workload check_fip_n4 --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) records spans around the benchmark's calls into each
// layer and prints the per-layer metrics, at GOMAXPROCS=1 and at the
// host's core count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md in
// this directory describes the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// setup builds the inputs from the seed.
	setup func(ctx context.Context, env *env) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// measure runs untraced operations until d has passed, at least one.
	measure(ctx context.Context, d time.Duration) (*measured, error)
	// pass runs one pass of the workload's per-layer decomposition,
	// recording a span around each call into a layer. Layer times come
	// from the spans; pass returns the counts.
	pass(ctx context.Context, p passTrace) (layerSample, tally, error)
	close() error
}

// env is what set-up may use: the seed and a scratch directory inside
// the checkout.
type env struct {
	seed int64
	dir  string
}

// tally counts operations attempted and failed; base names the
// operation.
type tally struct {
	attempted, failed int
	base              string
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.base == "" {
		t.base = o.base
	}
}

// measured is the outcome of an untraced run.
type measured struct {
	tally
	runsPerS []float64 // one sample per operation (or per pass)
	runsNote string    // what runsPerS counts
	opMS     []float64 // one latency per operation
	report   []reportLine
	// errs holds the first few verification failures.
	errs []string
}

func (m *measured) fail(err error) {
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err.Error())
	}
}

// reportLine is a named metric printed above the result line for a
// reader: a workload's own figures beside the end-to-end set.
type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// passTrace places one pass's spans: the tracer (nil when untraced),
// the pass's trace id, and the pass's root span.
type passTrace struct {
	tr    *tracer
	trace string
	root  int
}

// do runs fn inside a span that is a direct child of the pass.
func (p passTrace) do(name string, fn func() error) error {
	return p.tr.do(p.trace, p.root, name, fn)
}

var workloads = []workload{checkWorkload, buildWorkload, sweepWorkload, serveWorkload}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: selects sweep stripes and the serve plan")
	seconds := fs.Int("seconds", 10, "how long the untraced run measures (whole operations, at least one)")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workDir is where runs keep scratch files and traces, relative to the
// checkout root the benchmark runs from.
const workDir = ".bench_build"

func runWorkload(ctx context.Context, w *workload, seed int64, d time.Duration, traced bool, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	inst, setupS, err := setUp(ctx, w, &env{seed: seed, dir: dir})
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: closing: %v\n", w.name, err)
		}
	}()

	if traced {
		return tracedRun(ctx, w, inst, seed, stdout)
	}
	steal0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	m, err := inst.measure(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	steal1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	m.report = append(m.report, reportLine{name: "host_steal_share", value: steal1.stealShare(steal0), unit: "ratio",
		note: "CPU time the hypervisor gave to other guests while measuring; wall-time metrics grow with it"})
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":       setupS,
		"cpu_ms_per_op": ms(cpu1-cpu0) / float64(m.attempted),
		"peak_rss_mb":   rss,
	}
	// Wall-clock throughput and latency are reported for a reader but not
	// gated: on a shared host they move with the time the hypervisor
	// gives to other guests (host_steal_share). An operation that failed
	// leaves no throughput sample.
	wall := []reportLine{{name: "runs_per_s", value: 0, unit: "1/s", note: "wall clock; no operation succeeded"}}
	if len(m.runsPerS) > 0 {
		wall[0] = reportLine{name: "runs_per_s", value: median(m.runsPerS), unit: "1/s", note: "wall clock, " + m.runsNote}
	}
	if len(m.opMS) > 0 {
		wall = append(wall, reportLine{name: "op_p50_ms", value: finite(median(m.opMS)), unit: "ms",
			note: fmt.Sprintf("wall clock, median of %d %s", len(m.opMS), m.base)})
	}
	m.report = append(wall, m.report...)
	metrics, err := collect(endToEnd, values)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	printReport(stdout, w.name, m)
	return &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, nil
}

// setUp runs the workload's set-up setupReps times, keeping the last
// instance, and returns the median set-up time.
func setUp(ctx context.Context, w *workload, e *env) (instance, float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < w.setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
		// Each set-up starts from a collected heap, so one rep does not
		// pay for the garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(ctx, e)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// tracedRun makes one untraced reference pass and two traced passes, at
// GOMAXPROCS=1 and at nproc, and returns the per-layer metrics.
func tracedRun(ctx context.Context, w *workload, inst instance, seed int64, stdout io.Writer) (*result, error) {
	nproc := runtime.GOMAXPROCS(0)
	var t tally
	t0 := time.Now()
	_, refTally, err := inst.pass(ctx, passTrace{})
	if err != nil {
		return nil, fmt.Errorf("%s reference pass: %w", w.name, err)
	}
	ref := time.Since(t0)
	t.add(refTally)

	tr := newTracer()
	samples := map[string]layerSample{}
	walls := map[string]time.Duration{}
	share := 1.0
	for _, procs := range []int{1, nproc} {
		suffix := ".pn"
		if procs == 1 {
			suffix = ".p1"
		}
		runtime.GOMAXPROCS(procs)
		first := len(tr.snapshot())
		root := tr.start("pass"+suffix, 0, "pass")
		sample, pt, err := inst.pass(ctx, passTrace{tr: tr, trace: "pass" + suffix, root: root})
		tr.end(root)
		runtime.GOMAXPROCS(nproc)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass%s: %w", w.name, suffix, err)
		}
		t.add(pt)
		spans := tr.snapshot()[first:]
		for name, self := range selfByName(spans) {
			if name != "pass" {
				sample[name+"_s"] = self.Seconds()
			}
		}
		for _, d := range derivedTimes {
			whole, ok1 := sample[d.whole]
			part, ok2 := sample[d.part]
			if ok1 && ok2 {
				sample[d.name] = math.Max(0, whole-part)
			}
		}
		samples[suffix] = sample
		walls[suffix] = spans[0].duration()
		share = math.Min(share, topLevelShare(spans, root))
	}

	values := map[string]float64{}
	for _, def := range perLayer() {
		values[def.Name] = 0 // a layer the workload does not reach did no work
	}
	for _, name := range layerTimes {
		values[name+".p1"] = samples[".p1"][name]
		values[name+".pn"] = samples[".pn"][name]
	}
	for _, def := range layerCounts {
		if v, ok := samples[".pn"][def.Name]; ok {
			values[def.Name] = v
		}
	}
	values["trace.overhead_ratio"] = walls[".pn"].Seconds() / ref.Seconds()
	values["trace.top_level_share"] = share

	if err := writeTrace(tr, w.name, seed); err != nil {
		return nil, err
	}
	metrics, err := collect(perLayer(), values)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s traced: 3 passes (%d %s), top-level spans cover %.1f%% of each traced pass's wall time\n", w.name, t.attempted, t.base, 100*share)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// writeTrace writes the run's spans as JSON lines under workDir.
func writeTrace(tr *tracer, name string, seed int64) error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = tr.write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printReport prints the workload's figures, one per line, above the
// result line.
func printReport(w io.Writer, name string, m *measured) {
	ratio := 0.0
	if m.attempted > 0 {
		ratio = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(w, "%s failed_ratio %g (%d of %d %s)\n", name, ratio, m.failed, m.attempted, m.base)
	for _, r := range m.report {
		if math.IsNaN(r.value) {
			fmt.Fprintf(w, "%s %s refused (%s)\n", name, r.name, r.note)
			continue
		}
		if r.note != "" {
			fmt.Fprintf(w, "%s %s %s %s (%s)\n", name, r.name, fmtValue(r.value), r.unit, r.note)
		} else {
			fmt.Fprintf(w, "%s %s %s %s\n", name, r.name, fmtValue(r.value), r.unit)
		}
	}
	for _, e := range m.errs {
		fmt.Fprintf(w, "%s FAILED: %s\n", name, e)
	}
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// finite maps +Inf (a failed operation's latency) to the largest
// float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// percentileLine reports the q-quantile of samples as a report line,
// or NaN with the reason when too few samples lie beyond it.
func percentileLine(name string, samples []float64, q float64) reportLine {
	v, err := percentile(samples, q)
	if err != nil {
		return reportLine{name: name, value: math.NaN(), unit: "ms", note: err.Error()}
	}
	return reportLine{name: name, value: finite(v), unit: "ms", note: fmt.Sprintf("%d samples", len(samples))}
}

// processCPU returns the CPU time (user and system) the process has
// used so far, all threads together.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading process CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTicks is the machine-wide CPU time split of /proc/stat.
type cpuTicks struct{ steal, total float64 }

// hostCPU reads the machine-wide CPU time counters.
func hostCPU() (cpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, fmt.Errorf("reading CPU times: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("parsing /proc/stat line %q: %w", line, err)
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of CPU time stolen between two readings.
func (t cpuTicks) stealShare(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return (t.steal - before.steal) / (t.total - before.total)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
