// Command perfbench is the offnetrisk benchmark. One invocation runs one
// workload as a closed loop with a single caller: the next job starts only
// after the previous one finished, until another job would overrun
// -seconds. Every job's output is checked, and the last line of standard
// output is one JSON result holding the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1) that BENCHMARK.json names.
//
// Run it through run.sh, which builds cmd/reproduce and this harness first:
//
//	bash perfbench/run.sh --workload whatif-replay --seed 42 --seconds 40 --trace 0
//	bash perfbench/run.sh --report --runs 3
//
// -report re-runs this binary once per run (a fresh process each, so peak
// RSS and the obs.Default counters belong to that run) and prints every
// metric with its unit, workload, sample count, median and highest
// supported percentile, the tracing overhead, and the exact work-count gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// job is what one closed-loop iteration reports. Sample maps may hold several
// values per job (repeated snapshot reads); a run reports the median over
// every job's samples.
type job struct {
	e2e    map[string][]float64
	layer  map[string][]float64
	counts map[string]int64 // exact work counts, gated across jobs of a seed
	digest string           // output fingerprint, identical across jobs of a seed
	approx []float64        // outputs equal across jobs to approxTol, drift reported
	err    error
}

// approxTol is the relative tolerance for job.approx outputs.
const approxTol = 1e-9

func newJob() *job {
	return &job{e2e: map[string][]float64{}, layer: map[string][]float64{}, counts: map[string]int64{}}
}

// env is what a workload needs from the command line.
type env struct {
	ctx       context.Context
	workers   int
	traced    bool
	reproduce string // built cmd/reproduce binary
	work      string // scratch directory inside the checkout
}

// workload prepares one job function. final runs once after the loop; it
// cleans up and returns the values the run measures once, not per job (the
// harness process's peak RSS).
type workload struct {
	name  string
	start func(e *env) (run func(seed int64) *job, final func() map[string]float64, err error)
}

var workloads = []workload{
	{"reproduce-default", startReproduce},
	{"whatif-replay", startWhatif},
	{"world-snapshot", startSnapshot},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Int64("seed", 42, "workload seed")
		seconds   = flag.Float64("seconds", 0, "measurement budget of one run, in seconds (0: run_seconds of -spec)")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		specPath  = flag.String("spec", "BENCHMARK.json", "benchmark definition")
		reproduce = flag.String("reproduce", ".bench_build/bin/reproduce", "built cmd/reproduce binary")
		work      = flag.String("work", ".bench_build/work", "scratch directory")
		samples   = flag.String("samples", "", "also write every per-job sample to this JSON file")
		report    = flag.Bool("report", false, "run every workload -runs times plus one traced run and print all metrics")
		runs      = flag.Int("runs", 3, "untraced runs per workload with -report")
	)
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *report {
		if err := runReport(ctx, spec, *seed, *seconds, *runs, *specPath, *reproduce, *work); err != nil {
			stop()
			fatal(err)
		}
		return
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	e := &env{
		ctx: ctx, workers: runtime.NumCPU(), traced: *trace == 1,
		reproduce: *reproduce, work: *work,
	}
	run, final, err := wl.start(e)
	if err != nil {
		stop()
		fatal(fmt.Errorf("%s: %w", wl.name, err))
	}
	jobs := closedLoop(ctx, *seconds, func() *job { return run(*seed) })
	if ctx.Err() != nil {
		stop()
		fatal(fmt.Errorf("%s: interrupted", wl.name))
	}
	good, failed, drift := checkJobs(jobs)
	runLevel := map[string]float64{"output_bit_drift_frac": drift}
	for k, v := range final() {
		runLevel[k] = v
	}
	res := summarize(spec, e.traced, len(jobs), failed, good, runLevel)
	if *samples != "" {
		if err := writeSamples(*samples, good, runLevel); err != nil {
			stop()
			fatal(err)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// closedLoop runs jobs one at a time, all on the run's seed. Another job
// starts only while the elapsed time plus the median job time so far still
// fits in the budget, so the program's speed sets how many samples a run
// takes but never which work they measure. At least one job always runs.
func closedLoop(ctx context.Context, seconds float64, run func() *job) []*job {
	start := time.Now()
	var jobs []*job
	var durs []float64
	for ctx.Err() == nil {
		t := time.Now()
		jobs = append(jobs, run())
		durs = append(durs, time.Since(t).Seconds())
		if time.Since(start).Seconds()+median(durs) > seconds {
			break
		}
	}
	return jobs
}

// checkJobs compares every job with the run's first good job. A job fails
// when it returned an error, when its output fingerprint or an approximate
// output differs, or when any exact work count differs; each difference is
// named on stderr. drift is the share of compared jobs whose approximate
// outputs differ from the first job's in the last bits.
func checkJobs(jobs []*job) (good []*job, failed int, drift float64) {
	var ref *job
	compared, drifted := 0, 0
	for i, j := range jobs {
		if j.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", i, j.err)
			failed++
			continue
		}
		if ref == nil {
			ref = j
			good = append(good, j)
			continue
		}
		if diffs := diffJobs(ref, j); len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "perfbench: job %d: %s\n", i, d)
			}
			failed++
			continue
		}
		good = append(good, j)
		compared++
		for k := range j.approx {
			if j.approx[k] != ref.approx[k] {
				drifted++
				break
			}
		}
	}
	if compared == 0 {
		return good, failed, 0
	}
	if drifted > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d compared jobs had outputs that differ from the first job's in the last bits (within %g relative)\n",
			drifted, compared, approxTol)
	}
	return good, failed, float64(drifted) / float64(compared)
}

// summarize reduces the good jobs to the metrics BENCHMARK.json names: the
// end-to-end list, or the per-layer list for a traced run. A metric is the
// median over every good job's samples, unless the run measured it once
// (runLevel).
func summarize(spec *benchSpec, traced bool, attempted, failed int, good []*job, runLevel map[string]float64) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	list, pick := spec.EndToEnd, func(j *job) map[string][]float64 { return j.e2e }
	if traced {
		list, pick = spec.PerLayer, func(j *job) map[string][]float64 { return j.layer }
	}
	for _, m := range list {
		v, ok := runLevel[m.Name]
		if !ok {
			var vals []float64
			for _, j := range good {
				vals = append(vals, pick(j)[m.Name]...)
			}
			v = median(vals)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res
}

// diffJobs names every output or work-count difference between two jobs of
// one seed; ref is the earlier one.
func diffJobs(ref, j *job) []string {
	var out []string
	if j.digest != ref.digest {
		out = append(out, fmt.Sprintf("output fingerprint %s differs from the reference's %s", j.digest, ref.digest))
	}
	if len(j.approx) != len(ref.approx) {
		out = append(out, fmt.Sprintf("%d approximate outputs, the reference had %d", len(j.approx), len(ref.approx)))
	} else {
		for k, v := range j.approx {
			if a := ref.approx[k]; math.Abs(v-a) > approxTol*math.Max(math.Abs(v), math.Abs(a)) {
				out = append(out, fmt.Sprintf("approximate output %d = %v, the reference had %v", k, v, a))
			}
		}
	}
	names := map[string]bool{}
	for k := range ref.counts {
		names[k] = true
	}
	for k := range j.counts {
		names[k] = true
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a, aok := ref.counts[k]
		b, bok := j.counts[k]
		if a != b || aok != bok {
			out = append(out, fmt.Sprintf("work count %s = %d, the reference had %d", k, b, a))
		}
	}
	return out
}

// samplesFile is what -samples writes: every good job's samples and counts,
// plus the values measured once per run.
type samplesFile struct {
	E2E      map[string][]float64 `json:"e2e"`
	Layer    map[string][]float64 `json:"layer"`
	Counts   map[string]int64     `json:"counts"` // the first good job's
	RunLevel map[string]float64   `json:"run_level"`
}

func writeSamples(path string, good []*job, runLevel map[string]float64) error {
	sf := samplesFile{E2E: map[string][]float64{}, Layer: map[string][]float64{}, RunLevel: runLevel}
	if len(good) > 0 {
		sf.Counts = good[0].counts
	}
	for _, j := range good {
		for k, v := range j.e2e {
			sf.E2E[k] = append(sf.E2E[k], v...)
		}
		for k, v := range j.layer {
			sf.Layer[k] = append(sf.Layer[k], v...)
		}
	}
	data, err := json.Marshal(sf)
	if err != nil {
		return fmt.Errorf("marshal samples: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write samples: %w", err)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the harness reads: the run length
// and the metric names and units it must report.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}
