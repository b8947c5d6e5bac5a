// Command perfbench is femtoverse's standing benchmark. One invocation
// runs one seeded workload for a fixed wall-clock window, checks the
// program's outputs, prints a human-readable report and, as its last
// line, one JSON result object:
//
//	go run . --workload campaign-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, timed from
// the benchmark's own wrappers around the program's public calls. The
// exit code is non-zero when any correctness check fails. README.md
// documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"femtoverse/internal/linalg"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports
// every one of them, measured on that workload's own unit of work (see
// README.md): a configuration on campaign-cold, a solve on
// solve-precision, an HTTP request on service-dedupe.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"work_per_s", "1/s"},
}

// perLayer lists the metrics of a traced run. A workload that bypasses
// a layer reports that layer's metrics as 0: the benchmark measured no
// call into it.
var perLayer = []metricDef{
	{"e2e.op_p50_s", "s"},
	{"e2e.op_p90_s", "s"},
	{"linalg.axpy_gbps", "GB/s"},
	{"linalg.axpy_array_mib", "MiB"},
	{"linalg.llc_mib", "MiB"},
	{"linalg.blas1_share.double", "ratio"},
	{"linalg.blas1_share.single", "ratio"},
	{"linalg.blas1_share.half", "ratio"},
	{"dirac.schur_gflops.f64", "GFLOP/s"},
	{"dirac.schur_gflops.f32", "GFLOP/s"},
	{"dirac.schur_bytes_per_flop.f64", "B/flop"},
	{"dirac.schur_bytes_per_flop.f32", "B/flop"},
	{"dirac.schur_roofline.f64", "ratio"},
	{"dirac.schur_roofline.f32", "ratio"},
	{"dirac.applies_per_solve.double", "count"},
	{"dirac.applies_per_solve.single", "count"},
	{"dirac.applies_per_solve.half", "count"},
	{"solver.iters.double", "count"},
	{"solver.iters.single", "count"},
	{"solver.iters.half", "count"},
	{"solver.reliable_updates.double", "count"},
	{"solver.reliable_updates.single", "count"},
	{"solver.reliable_updates.half", "count"},
	{"solver.restarts.double", "count"},
	{"solver.restarts.single", "count"},
	{"solver.restarts.half", "count"},
	{"solver.gflops.double", "GFLOP/s"},
	{"solver.gflops.single", "GFLOP/s"},
	{"solver.gflops.half", "GFLOP/s"},
	{"solver.solve_s.double", "s"},
	{"solver.solve_s.single", "s"},
	{"solver.solve_s.half", "s"},
	{"gauge.ensemble_s", "s"},
	{"prop.point_s", "s"},
	{"prop.fh_s", "s"},
	{"contract.proton2pt_s", "s"},
	{"contract.fh3pt_s", "s"},
	{"core.journal_append_s", "s"},
	{"core.journal_sync_s", "s"},
	{"runtime.solve_util", "ratio"},
	{"runtime.contract_util", "ratio"},
	{"runtime.failed_attempts", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.computes", "count"},
	{"cache.coalesced", "count"},
	{"serve.submit_s", "s"},
	{"serve.first_config_s", "s"},
	{"serve.solve_span_s", "s"},
	{"trace_overhead", "ratio"},
}

// workloads maps each --workload name to its driver.
var workloads = map[string]func(*bench) error{
	"campaign-cold":   runCampaignCold,
	"solve-precision": runSolvePrecision,
	"service-dedupe":  runServiceDedupe,
}

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 3

// machineWarmup is how long every core spins before anything is timed.
// On a two-core Xeon virtual machine the first second or two of work
// after idling ran at up to half speed; without the spin that slowdown
// lands in setup_s and the first operations.
const machineWarmup = 3 * time.Second

// warmMachine keeps every core busy with benchmark-owned arithmetic for
// d and waits for the spinning goroutines to finish.
func warmMachine(d time.Duration) {
	var wg sync.WaitGroup
	sink := make([]float64, runtime.GOMAXPROCS(0))
	deadline := time.Now().Add(d)
	for w := range sink {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := 1.0
			for time.Now().Before(deadline) {
				for i := 0; i < 1<<16; i++ {
					x = x*1.0000001 + 1e-9
				}
			}
			sink[w] = x
		}(w)
	}
	wg.Wait()
}

// bench is the state of one invocation: its inputs, the operation and
// failure counts, the correctness-check failures and the metrics.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool
	log     io.Writer
	// scratch is a directory inside the working tree for state the
	// workload writes (service state, cache and journal files).
	scratch string

	attempted int
	failed    int
	problems  []string

	metrics map[string]float64
	// exacts holds the values that must repeat exactly (see golden.go).
	exacts map[string]string
	// env holds the per-workload part of the environment stamp: pool
	// worker counts and sample counts.
	env map[string]interface{}
}

// check records a correctness-check failure when ok is false.
func (b *bench) check(ok bool, format string, args ...interface{}) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// logf writes one line of the human-readable report.
func (b *bench) logf(format string, args ...interface{}) {
	fmt.Fprintf(b.log, format+"\n", args...)
}

// window returns the measurement window of one phase: the whole
// --seconds for an untraced run, half of it for each of the untraced and
// traced phases of a traced run.
func (b *bench) window() time.Duration {
	if b.traced {
		return b.seconds / 2
	}
	return b.seconds
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload and prints its report and
// result. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign-cold, solve-precision or service-dedupe")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	scratch := fs.String("scratch", ".bench_build", "directory for files the workload writes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %s, --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		name:    *name,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		log:     stdout,
		scratch: dir,
		metrics: map[string]float64{},
		env:     map[string]interface{}{},
	}
	b.logf("perfbench workload=%s seed=%d seconds=%g trace=%d", *name, *seed, *seconds, *trace)
	warmMachine(machineWarmup)
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !b.traced {
		b.metrics["peak_rss_mb"] = peakRSSMiB()
	}
	return report(b, stdout, stderr)
}

// report prints the environment stamp, the check outcome and every
// metric, then the JSON result line. It returns the exit code.
func report(b *bench, stdout, stderr io.Writer) int {
	env := environment()
	for k, v := range b.env {
		env[k] = v
	}
	stamp, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b.logf("env %s", stamp)
	b.logf("golden %s", b.goldenLine())

	failed := b.failed + len(b.problems)
	if failed > b.attempted {
		failed = b.attempted
	}
	b.logf("error_frac %.6f (%d failed of %d attempted, %d check failures)",
		float64(failed)/float64(max(b.attempted, 1)), b.failed, b.attempted, len(b.problems))
	for _, p := range b.problems {
		b.logf("CHECK FAILED: %s", p)
	}

	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := b.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			b.logf("CHECK FAILED: metric %s is not finite", d.name)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		b.logf("metric %-34s %14.6g %s", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// environment returns the machine half of the environment stamp.
func environment() map[string]interface{} {
	llc, _ := llcBytes()
	return map[string]interface{}{
		"nproc":                  runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"linalg_default_workers": linalg.DefaultWorkers,
		"go_version":             runtime.Version(),
		"llc_mib":                float64(llc) / (1 << 20),
	}
}
