package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runReport runs every workload `runs` times untraced and once traced, each
// run a fresh process of this binary, and prints every metric with its
// unit, workload, sample count, median and highest supported percentile,
// then the tracing overhead per workload. It fails when a run is incorrect
// or when any exact work count differs between runs of the seed.
func runReport(ctx context.Context, spec *benchSpec, seed int64, seconds float64, runs int, specPath, reproduce, work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tkind\tmetric\tunit\tn\tmedian\ttail\n")
	var overhead []string
	bad := 0
	for _, wl := range spec.Workloads {
		var (
			e2e    = map[string][]float64{}
			traced samplesFile
			counts map[string]int64 // the first run's
		)
		var untracedWall, tracedWall []float64
		for r := 0; r <= runs; r++ {
			trace := 0
			if r == runs {
				trace = 1
			}
			path := filepath.Join(work, fmt.Sprintf("samples-%s-%d.json", wl.Name, r))
			cmd := exec.CommandContext(ctx, self, "-spec", specPath, "-reproduce", reproduce, "-work", work,
				"-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-samples", path)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", wl.Name, r, err)
			}
			var res result
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s run %d: parse result: %w", wl.Name, r, err)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d (trace %d): correct=%v attempted=%d failed=%d\n",
				wl.Name, r, trace, res.Correct, res.Attempted, res.Failed)
			if !res.Correct {
				bad++
			}
			sf, err := readSamples(path)
			if err != nil {
				return err
			}
			if counts == nil {
				counts = sf.Counts
			} else {
				for _, d := range diffJobs(&job{counts: counts}, &job{counts: sf.Counts}) {
					bad++
					fmt.Fprintf(os.Stderr, "perfbench: %s run %d: %s\n", wl.Name, r, d)
				}
			}
			if trace == 1 {
				traced = sf
				tracedWall = sf.E2E["wall_s"]
				if traced.Layer == nil {
					traced.Layer = map[string][]float64{}
				}
				for k, v := range sf.RunLevel {
					traced.Layer[k] = append(traced.Layer[k], v)
				}
				continue
			}
			untracedWall = append(untracedWall, sf.E2E["wall_s"]...)
			for k, v := range sf.E2E {
				e2e[k] = append(e2e[k], v...)
			}
			for k, v := range sf.RunLevel {
				e2e[k] = append(e2e[k], v)
			}
		}
		for _, m := range spec.EndToEnd {
			printRow(tw, wl.Name, "e2e", m, e2e[m.Name])
		}
		for _, m := range spec.PerLayer {
			if vals := traced.Layer[m.Name]; len(vals) > 0 { // skip layers this workload never enters
				printRow(tw, wl.Name, "layer", m, vals)
			}
		}
		overhead = append(overhead, fmt.Sprintf("%s: traced wall_s %.3f s − untraced median %.3f s = %+.3f s",
			wl.Name, median(tracedWall), median(untracedWall), median(tracedWall)-median(untracedWall)))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Println("\ntracing overhead (wall_s):")
	for _, o := range overhead {
		fmt.Println("  " + o)
	}
	if bad > 0 {
		return fmt.Errorf("%d incorrect runs or work-count differences", bad)
	}
	fmt.Println("\nall runs correct; every work count repeated exactly")
	return nil
}

func printRow(tw *tabwriter.Writer, workload, kind string, m specMetric, vals []float64) {
	tailCol := "-"
	if label, v, ok := highestPercentile(vals); ok {
		tailCol = fmt.Sprintf("%s %.10g", label, v)
	}
	fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%.10g\t%s\n", workload, kind, m.Name, m.Unit, len(vals), median(vals), tailCol)
}

func readSamples(path string) (samplesFile, error) {
	var sf samplesFile
	data, err := os.ReadFile(path)
	if err != nil {
		return sf, fmt.Errorf("read samples: %w", err)
	}
	if err := json.Unmarshal(data, &sf); err != nil {
		return sf, fmt.Errorf("parse samples %s: %w", path, err)
	}
	os.Remove(path)
	return sf, nil
}
