// Command spillover runs the §4 experiments: the peering survey (§4.2.1),
// the lockdown replay and diurnal sweep (§4.1), the PNI census (§4.2.2), and
// the facility-failure cascade study (§4.3).
package main

import (
	"flag"
	"fmt"
	"os"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/cli"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/sweep"
	"offnetrisk/internal/traffic"
)

func main() {
	common := cli.Register(flag.CommandLine)
	storm := flag.Bool("storm", false, "also run the perfect-storm scenario")
	mitigate := flag.Bool("mitigate", false, "also run the §6 isolation what-if")
	risk := flag.Bool("risk", false, "also run the Monte Carlo colocation-risk ablation")
	sweeps := flag.Bool("sweeps", false, "also run the parameter sensitivity sweeps")
	flag.Parse()

	if common.HandleScenarioList() {
		return
	}
	logger := common.Logger("spillover")
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	ctx, stop := common.Context()
	defer stop()

	p, err := common.Pipeline()
	if err != nil {
		fatal("invalid flags", err)
	}
	hours, sched, err := common.Temporal()
	if err != nil {
		fatal("invalid temporal flags", err)
	}
	tr := obs.NewTracer()
	p.Instrument(tr)
	stopObs, err := common.Observability(ctx, tr, logger)
	if err != nil {
		fatal("observability setup failed", err)
	}
	defer stopObs()

	logger.Debug("running peering survey", "seed", common.Seed, "scale", common.Scale().String())
	ps, err := p.PeeringSurveyForContext(ctx, traffic.Google)
	if err != nil {
		fatal("peering survey failed", err)
	}
	fmt.Print(ps)
	fmt.Println()

	logger.Debug("running capacity study")
	cap, err := p.CapacityStudyContext(ctx)
	if err != nil {
		fatal("capacity study failed", err)
	}
	fmt.Print(cap)
	fmt.Println()

	logger.Debug("running cascade study")
	cas, err := p.CascadeStudyContext(ctx)
	if err != nil {
		fatal("cascade study failed", err)
	}
	fmt.Print(cas)

	if *mitigate {
		mit, err := p.MitigationStudyContext(ctx)
		if err != nil {
			fatal("mitigation study failed", err)
		}
		fmt.Println()
		fmt.Print(mit)
	}

	if *risk {
		w, d, err := p.World2023()
		if err != nil {
			fatal("world build failed", err)
		}
		decol := cascade.Decolocate(d)
		ccfg := capacity.ConfigFromScenario(p.Scenario(), common.Seed)
		mCol := capacity.Build(d, ccfg)
		mDecol := capacity.Build(decol, ccfg)
		col, err := cascade.MonteCarloContext(ctx, mCol, d, 3, 120, common.Seed, common.Workers)
		if err != nil {
			fatal("Monte Carlo (colocated) failed", err)
		}
		dec, err := cascade.MonteCarloContext(ctx, mDecol, decol, 3, 120, common.Seed, common.Workers)
		if err != nil {
			fatal("Monte Carlo (de-colocated) failed", err)
		}
		fmt.Printf("\nMonte Carlo risk (3 random facility outages, %d trials):\n", col.Trials)
		fmt.Printf("  colocated (today):  %.2f hypergiants hit/outage, %.1fM users affected on average\n",
			col.MeanHGs, col.MeanAffected/1e6)
		fmt.Printf("  de-colocated:       %.2f hypergiants hit/outage, %.1fM users affected on average\n",
			dec.MeanHGs, dec.MeanAffected/1e6)
		_ = w
	}

	if *sweeps {
		// Interactive use gets the timed rendering (wall-clock per sweep
		// point, from the sweep's spans); REPORT.md keeps the untimed one.
		fmt.Println()
		sp := p.Scenario()
		if r, err := sweep.ColocationPropensity(ctx, sp, common.Seed, []float64{0.3, 0.6, 0.86, 0.95}); err == nil {
			fmt.Print(r.TimedString())
		} else {
			fatal("colocation-propensity sweep failed", err)
		}
		if r, err := sweep.SharedHeadroom(ctx, sp, common.Seed, []float64{1.05, 1.25, 1.5, 2.0}); err == nil {
			fmt.Print(r.TimedString())
		} else {
			fatal("shared-headroom sweep failed", err)
		}
		if r, err := sweep.DemandSpike(ctx, sp, common.Seed, []float64{1.0, 1.3, 1.58, 2.0, 3.0}); err == nil {
			fmt.Print(r.TimedString())
		} else {
			fatal("demand-spike sweep failed", err)
		}
	}

	if hours > 0 {
		traj, err := p.TemporalReplayContext(ctx, hours, sched, common.EventSink())
		if err != nil {
			fatal("temporal replay failed", err)
		}
		fmt.Println()
		fmt.Println(traj.Summary())
	}

	if *storm {
		sc, err := p.PerfectStormContext(ctx, 12, 1.5)
		if err != nil {
			fatal("perfect storm failed", err)
		}
		fmt.Printf("\nperfect storm (12 facilities down, +50%% surge on all hypergiants):\n")
		fmt.Printf("  %s at %s; direct users %.1fM; collateral: %d ISPs / %.1fM users; congested: %d IXPs, %d transits\n",
			sc.ISP, sc.Facility, sc.DirectUsers/1e6, sc.CollateralISPs, sc.CollateralUsers/1e6,
			sc.CongestedIXPs, sc.CongestedTransits)
	}
}
