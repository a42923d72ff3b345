// Package sweep runs parameter sweeps over the reproduction's design knobs
// and records how the paper's headline quantities respond — the sensitivity
// analysis behind the calibration choices in DESIGN.md. Each sweep rebuilds
// the run's scenario at the registry's tiny topology, deterministically: the
// directions a sweep probes are scale-independent, and a sweep at the run's
// own scale would dominate its runtime. A sweep returns its first error
// (including ctx's) instead of a partial table.
package sweep

import (
	"context"
	"fmt"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// Point is one sweep sample: the parameter value and the observed metrics.
type Point struct {
	Param   float64
	Metrics map[string]float64
	// ElapsedMS is the wall-clock cost of computing this point, recorded from
	// the sweep's span tracer. It is excluded from String() so the default
	// rendering (used in REPORT.md and conformance) stays deterministic;
	// TimedString() includes it.
	ElapsedMS float64
}

// Result is a named sweep.
type Result struct {
	Name   string
	Param  string
	Points []Point
}

// String renders the sweep as an aligned table. Timing is deliberately
// omitted: this rendering feeds REPORT.md and must be identical across runs
// of the same seed.
func (r Result) String() string {
	return r.render(false)
}

// TimedString is String plus a wall-clock column per point.
func (r Result) TimedString() string {
	return r.render(true)
}

func (r Result) render(timed bool) string {
	out := fmt.Sprintf("sweep %s over %s:\n", r.Name, r.Param)
	if len(r.Points) == 0 {
		return out
	}
	keys := sortedKeys(r.Points[0].Metrics)
	header := fmt.Sprintf("%10s", r.Param)
	for _, k := range keys {
		header += fmt.Sprintf(" %18s", k)
	}
	if timed {
		header += fmt.Sprintf(" %10s", "wall(ms)")
	}
	out += header + "\n"
	for _, p := range r.Points {
		row := fmt.Sprintf("%10.2f", p.Param)
		for _, k := range keys {
			row += fmt.Sprintf(" %18.3f", p.Metrics[k])
		}
		if timed {
			row += fmt.Sprintf(" %10.2f", p.ElapsedMS)
		}
		out += row + "\n"
	}
	return out
}

// timePoint runs fn under a span on the sweep's tracer and stamps the point's
// ElapsedMS from the span.
func timePoint(tr *obs.Tracer, name string, pt *Point, fn func() error) error {
	sp := tr.Start(name)
	err := fn()
	sp.End()
	pt.ElapsedMS = float64(sp.Elapsed().Nanoseconds()) / 1e6
	return err
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// deploy builds sp's world and its 2023 deployment under cfg.
func deploy(sp *scenario.Spec, cfg hypergiant.DeployConfig) (*hypergiant.Deployment, error) {
	w := inet.Generate(inet.ConfigFromScenario(sp, cfg.Seed))
	return hypergiant.Deploy(w, hypergiant.Epoch2023, cfg)
}

// ColocationPropensity sweeps the probability that ISPs concentrate offnets
// in their primary facility and reports how ground-truth colocation and the
// correlated-failure measure respond — the knob behind §3.1's operational
// story. Every point deploys sp's world at tiny topology with only the
// propensity changed.
func ColocationPropensity(ctx context.Context, sp *scenario.Spec, seed int64, values []float64) (Result, error) {
	res := Result{Name: "colocation-propensity", Param: "propensity"}
	sp = sp.AtScale("tiny")
	tr := obs.NewTracer()
	for _, v := range values {
		point := Point{Param: v}
		err := timePoint(tr, fmt.Sprintf("propensity=%g", v), &point, func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			cfg := hypergiant.DeployConfigFromScenario(sp, seed)
			cfg.ColocationPropensity = v
			d, err := deploy(sp, cfg)
			if err != nil {
				return fmt.Errorf("sweep: propensity %v: %w", v, err)
			}

			// Ground-truth share of multi-HG ISPs whose top facility hosts
			// ALL their hypergiants (full concentration), plus the mean HGs
			// hit by a top-facility failure.
			var multi, allAtTop int
			for _, as := range d.HostingISPs() {
				hgs := len(d.HGsIn(as))
				if hgs < 2 {
					continue
				}
				multi++
				if _, top := cascade.TopFacility(d, as); top == hgs {
					allAtTop++
				}
			}
			m := capacity.Build(d, capacity.ConfigFromScenario(sp, seed))
			st, err := cascade.SweepContext(ctx, m, d, d.HostingISPs(), 1)
			if err != nil {
				return fmt.Errorf("sweep: propensity %v: %w", v, err)
			}

			point.Metrics = map[string]float64{
				"all-at-top-frac": frac(allAtTop, multi),
				"hg-per-failure":  st.MeanHGsPerFailure,
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// SharedHeadroom sweeps the spare capacity of shared links and reports the
// fraction of facility-failure scenarios that congest one — §4.3's argument
// that headroom, not topology, decides whether spillover cascades. It
// deploys sp's world at tiny topology once and fails each hosting ISP's top
// facility at every point.
func SharedHeadroom(ctx context.Context, sp *scenario.Spec, seed int64, values []float64) (Result, error) {
	res := Result{Name: "shared-headroom", Param: "headroom"}
	sp = sp.AtScale("tiny")
	d, err := deploy(sp, hypergiant.DeployConfigFromScenario(sp, seed))
	if err != nil {
		return res, fmt.Errorf("sweep: headroom: %w", err)
	}
	m := capacity.Build(d, capacity.ConfigFromScenario(sp, seed))
	hosts := d.HostingISPs()
	tr := obs.NewTracer()
	for _, v := range values {
		point := Point{Param: v}
		err := timePoint(tr, fmt.Sprintf("headroom=%g", v), &point, func() error {
			var congested, scenarios int
			var collateral float64
			for _, as := range hosts {
				if err := ctx.Err(); err != nil {
					return err
				}
				fid, n := cascade.TopFacility(d, as)
				if n <= 0 {
					continue
				}
				sc := cascade.DefaultScenario()
				sc.SharedHeadroom = v
				sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
				rep := cascade.Simulate(m, d, sc)
				scenarios++
				if len(rep.CongestedIXPs())+len(rep.CongestedTransits()) > 0 {
					congested++
				}
				collateral += float64(len(rep.CollateralISPs))
			}
			point.Metrics = map[string]float64{
				"congesting-frac": frac(congested, scenarios),
				"collateral-isps": collateral / float64(max(scenarios, 1)),
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// DemandSpike sweeps the §4.1 demand multiplier and reports offnet vs
// interdomain growth — the curve whose 1.58 point is the paper's COVID
// observation. It replays Netflix's spike over sp's world at tiny topology.
func DemandSpike(ctx context.Context, sp *scenario.Spec, seed int64, values []float64) (Result, error) {
	res := Result{Name: "demand-spike", Param: "multiplier"}
	sp = sp.AtScale("tiny")
	d, err := deploy(sp, hypergiant.DeployConfigFromScenario(sp, seed))
	if err != nil {
		return res, fmt.Errorf("sweep: demand spike: %w", err)
	}
	m := capacity.Build(d, capacity.ConfigFromScenario(sp, seed))
	tr := obs.NewTracer()
	for _, v := range values {
		point := Point{Param: v}
		err := timePoint(tr, fmt.Sprintf("multiplier=%g", v), &point, func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			rep := capacity.CovidReplay(m, traffic.Netflix, v)
			point.Metrics = map[string]float64{
				"offnet-growth":      rep.OffnetGrowth(),
				"interdomain-growth": rep.InterdomainGrowth(),
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
