package main

import (
	"context"
	"syscall"
	"time"

	"offnetrisk/internal/obs"
)

// jobTrace times the calls of one in-process job from outside the program.
// Untraced, a step is one timer around the call. Traced, each step is also a
// benchmark-owned obs span (duration and allocation delta from
// runtime.MemStats) carried on the call's context, so the program's parallel
// regions attribute their worker spans to it.
type jobTrace struct {
	ctx  context.Context
	tr   *obs.Tracer // nil when untraced
	root *obs.Span
}

func newJobTrace(e *env, name string) *jobTrace {
	jt := &jobTrace{ctx: e.ctx}
	if e.traced {
		jt.tr = obs.NewTracer()
		jt.root = jt.tr.Start(name)
	}
	return jt
}

// step runs fn as one timed call and returns its wall time in seconds.
func (jt *jobTrace) step(name string, fn func(ctx context.Context) error) (float64, error) {
	sp := jt.root.Child(name)
	t := time.Now()
	err := fn(obs.ContextWithSpan(jt.ctx, sp))
	d := time.Since(t).Seconds()
	sp.End()
	return d, err
}

// stepStats is what a traced job's spans say about one step name, summed
// over every call of that name.
type stepStats struct {
	ms      float64
	mallocs uint64
}

// finish ends the job span and returns per-step totals plus the share of
// lane time the parallel regions kept their workers busy. Untraced jobs
// return nothing.
func (jt *jobTrace) finish() (map[string]stepStats, float64) {
	if jt.tr == nil {
		return nil, 0
	}
	jt.root.End()
	snaps := jt.tr.Snapshot(time.Time{})
	steps := map[string]stepStats{}
	for _, root := range snaps {
		for _, c := range root.Children {
			s := steps[c.Name]
			s.ms += c.DurMS
			s.mallocs += c.Mallocs
			steps[c.Name] = s
		}
	}
	return steps, busyFrac(obs.BuildProfile(snaps, 10))
}

// busyFrac is the share of parallel-region lane time the workers spent
// running tasks, over every region of a profile.
func busyFrac(p *obs.Profile) float64 {
	if p == nil {
		return 0
	}
	var busy, lane float64
	for _, r := range p.Regions {
		busy += r.BusyMS
		lane += r.LaneMS
	}
	if lane == 0 {
		return 0
	}
	return busy / lane
}

// counters snapshots every obs.Default counter and histogram count.
func counters() map[string]int64 { return countsOf(obs.Default.Snapshot()) }

// countsOf keeps the exact counts of a metrics snapshot: counter values and
// histogram sample counts.
func countsOf(metrics map[string]obs.MetricValue) map[string]int64 {
	out := map[string]int64{}
	for name, v := range metrics {
		switch v.Type {
		case "counter":
			out[name] = int64(v.Value)
		case "histogram":
			out[name+".count"] = v.Count
		}
	}
	return out
}

// counterDelta returns after − before for every counter present after.
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// cpuSeconds returns the user plus system CPU time this process used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// peakRSSMB returns this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
