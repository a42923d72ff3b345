package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"offnetrisk/internal/obs"
)

// minConformanceChecks is the size of the paper-conformance suite; a run
// may not lose any check.
const minConformanceChecks = 29

// reproduceTimeout bounds one child run; a default run takes about 15 s.
const reproduceTimeout = 150 * time.Second

var conformanceRE = regexp.MustCompile(`conformance=(\d+)/(\d+)`)

// startReproduce is what a researcher regenerating the paper runs: the built
// cmd/reproduce binary at default scale, one child process per job.
func startReproduce(e *env) (func(int64) *job, func() map[string]float64, error) {
	if _, err := os.Stat(e.reproduce); err != nil {
		return nil, nil, fmt.Errorf("reproduce binary: %w", err)
	}
	work, err := os.MkdirTemp(e.work, "reproduce-")
	if err != nil {
		return nil, nil, err
	}
	run := func(seed int64) *job {
		out, err := os.MkdirTemp(work, "job-")
		if err != nil {
			return &job{err: err}
		}
		defer os.RemoveAll(out)
		return reproduceJob(e, out, seed)
	}
	final := func() map[string]float64 {
		os.RemoveAll(work)
		return nil
	}
	return run, final, nil
}

func reproduceJob(e *env, out string, seed int64) *job {
	j := newJob()
	manifest := filepath.Join(out, "manifest.json")
	args := []string{
		"-seed", strconv.FormatInt(seed, 10), "-workers", strconv.Itoa(e.workers),
		"-out", out, "-manifest", manifest,
	}
	if e.traced {
		args = append(args, "-trace", filepath.Join(out, "trace.json"))
	}
	ctx, cancel := context.WithTimeout(e.ctx, reproduceTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.reproduce, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		j.err = fmt.Errorf("reproduce: %w\n%s", err, tail(stderr.String(), 20))
		return j
	}
	// The suite must run complete. Which checks pass depends on the seed's
	// world (Sweep/propensity-direction fails at some seeds), so a failing
	// check is reported, not counted as a failed operation; every later job's
	// identical REPORT.md pins the verdicts.
	cm := conformanceRE.FindStringSubmatch(stderr.String())
	if cm == nil {
		j.err = fmt.Errorf("reproduce logged no conformance result")
		return j
	}
	passed, total := atoi(cm[1]), atoi(cm[2])
	if total < minConformanceChecks {
		j.err = fmt.Errorf("conformance suite ran %d checks, want at least %d", total, minConformanceChecks)
		return j
	}
	if passed < total {
		fmt.Fprintf(os.Stderr, "perfbench: seed %d: conformance %d/%d (failing checks are marked in REPORT.md)\n", seed, passed, total)
	}
	report, err := os.ReadFile(filepath.Join(out, "REPORT.md"))
	if err != nil {
		j.err = err
		return j
	}
	// The performance profile is wall-clock data; everything above it is
	// determined by the seed.
	if k := bytes.Index(report, []byte("## Performance profile")); k >= 0 {
		report = report[:k]
	}
	j.digest = fmt.Sprintf("%x", sha256.Sum256(report))

	m, err := obs.ReadManifest(manifest)
	if err != nil {
		j.err = err
		return j
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	spans := spanTotals(m.Stages)
	j.e2e["wall_s"] = []float64{wall}
	j.e2e["cpu_s"] = []float64{tvSeconds(ru.Utime) + tvSeconds(ru.Stime)}
	j.e2e["peak_rss_mb"] = []float64{float64(ru.Maxrss) / 1024}
	j.e2e["setup_s"] = []float64{spans.worldBuild / 1000}
	j.counts = countsOf(m.Metrics)
	for _, f := range m.Funnels {
		j.counts["funnel."+f.Name+".in"] = f.In
		j.counts["funnel."+f.Name+".out"] = f.Out
	}
	j.counts["pipeline.conformance_failed_checks"] = int64(total - passed)
	if !e.traced {
		return j
	}

	layer := map[string]float64{
		"world.build_ms":              spans.worldBuild,
		"scan.tls_scan_ms":            spans.byName["table1/tls-scan"],
		"offnetmap.infer_ms":          spans.byName["table1/offnet-inference"],
		"mlab.ping_campaign_ms":       spans.byName["colocation/ping-campaign"],
		"coloc.optics_cluster_ms":     spans.byName["colocation/optics-cluster"],
		"rdns.validate_ms":            spans.byName["colocation/rdns-validate"],
		"steer.mapping_ms":            spans.byName["mapping-study"],
		"sweep.sensitivity_ms":        spans.byName["conformance/sensitivity-sweeps"],
		"session.worst_case_qoe_ms":   spans.byName["cascade-study/worst-case-qoe"],
		"tracert.survey_ms":           spans.byName["peering-survey/traceroutes"],
		"tracert.infer_ms":            spans.byName["peering-survey/infer"],
		"capacity.build_ms":           spans.byName["capacity-study/build-model"] + spans.byName["cascade-study/build-model"],
		"cascade.facility_sweep_ms":   spans.byName["cascade-study/facility-sweep"],
		"cascade.mitigation_sweep_ms": spans.byName["mitigation-study/sweep"],
		"pipeline.conformance_ms":     spans.conformance,
		"pipeline.conformance_share":  spans.conformance / m.WallMS,
		"mlab.kept_frac":              funnelFrac(m.Funnels, "ping.filter"),
		"tracert.hops_mapped_frac":    funnelFrac(m.Funnels, "tracert.hops"),
		"par.worker_busy_frac":        busyFrac(m.Profile),
	}
	for _, c := range []string{"inet.worlds_generated", "scan.records_simulated", "scan.certs_classified",
		"ping.rtts_measured", "coloc.distances_computed", "optics.points_clustered", "optics.runs_total",
		"tracert.traces_run", "capacity.models_built", "capacity.flows_served",
		"cascade.scenarios_simulated", "par.tasks_total", "pipeline.conformance_failed_checks"} {
		layer[c] = float64(j.counts[c])
	}
	for k, v := range layer {
		j.layer[k] = []float64{v}
	}
	return j
}

// manifestSpans sums inclusive span durations (ms) by span name over the
// whole stage tree, including the stages conformance re-runs.
type manifestSpans struct {
	byName      map[string]float64
	worldBuild  float64 // every world/build-<epoch> span
	conformance float64 // the top-level conformance stage
}

func spanTotals(stages []obs.SpanSnapshot) manifestSpans {
	s := manifestSpans{byName: map[string]float64{}}
	var walk func(sp obs.SpanSnapshot)
	walk = func(sp obs.SpanSnapshot) {
		s.byName[sp.Name] += sp.DurMS
		if strings.HasPrefix(sp.Name, "world/build-") {
			s.worldBuild += sp.DurMS
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range stages {
		walk(sp)
		if sp.Name == "conformance" {
			s.conformance += sp.DurMS
		}
	}
	return s
}

// funnelFrac is a funnel's kept share: items out over items in.
func funnelFrac(funnels []obs.FunnelSnapshot, name string) float64 {
	for _, f := range funnels {
		if f.Name == name && f.In > 0 {
			return float64(f.Out) / float64(f.In)
		}
	}
	return 0
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s) // the regexp admits digits only
	return n
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
