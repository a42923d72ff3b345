package main

import (
	"context"
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if median(nil) != 0 {
		t.Error("median of no samples should read as zero work")
	}
}

// A tail percentile is shown only with at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{{39, ""}, {40, "p75"}, {100, "p90"}, {200, "p95"}, {1000, "p99"}} {
		vals := make([]float64, c.n)
		for i := range vals {
			vals[i] = float64(i)
		}
		label, _, ok := highestPercentile(vals)
		if ok != (c.label != "") || label != c.label {
			t.Errorf("n=%d: got %q (ok=%v), want %q", c.n, label, ok, c.label)
		}
	}
}

func TestClosedLoopRunsAtLeastOnce(t *testing.T) {
	n := 0
	jobs := closedLoop(context.Background(), 0, func() *job { n++; return newJob() })
	if len(jobs) != 1 || n != 1 {
		t.Fatalf("zero budget ran %d jobs, want exactly 1", n)
	}
}

func TestDiffJobsNamesEveryDifference(t *testing.T) {
	a := &job{digest: "x", counts: map[string]int64{"probes": 10, "cells": 4}}
	b := &job{digest: "y", counts: map[string]int64{"probes": 11, "events": 2}}
	diffs := diffJobs(a, b)
	if len(diffs) != 4 { // fingerprint, cells, events, probes
		t.Fatalf("got %d differences %q, want 4", len(diffs), diffs)
	}
	if len(diffJobs(a, a)) != 0 {
		t.Fatal("a job differs from itself")
	}
}

func TestCheckJobsComparesEveryJobWithTheFirst(t *testing.T) {
	mk := func(digest string, probes int64) *job {
		return &job{digest: digest, counts: map[string]int64{"probes": probes}}
	}
	jobs := []*job{{err: context.Canceled}, mk("x", 10), mk("x", 10), mk("y", 10), mk("x", 11), mk("x", 10)}
	good, failed, _ := checkJobs(jobs)
	if failed != 3 || len(good) != 3 {
		t.Fatalf("got %d good and %d failed, want 3 and 3 (an error, a fingerprint and a count differ)", len(good), failed)
	}
	if good[0] != jobs[1] {
		t.Fatal("the first good job is not the reference")
	}
}
