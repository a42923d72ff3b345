// Command offnetatlas builds the located offnet dataset: every discovered
// offnet address annotated with hosting ISP, latency-derived cluster, and a
// metro inferred by majority vote over the cluster's reverse-DNS geohints —
// the publishable artifact behind the paper's colocation claims.
//
//	go run ./cmd/offnetatlas -o atlas.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"offnetrisk/internal/atlas"
	"offnetrisk/internal/cli"
	"offnetrisk/internal/coloc"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rdns"
)

func main() {
	common := cli.Register(flag.CommandLine)
	xi := flag.Float64("xi", 0.9, "OPTICS steepness for the facility clustering")
	out := flag.String("o", "", "write the atlas CSV here (default: stats only)")
	flag.Parse()

	if common.HandleScenarioList() {
		return
	}
	logger := common.Logger("offnetatlas")
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
	sp := p.Spec
	tr := obs.NewTracer()
	p.Instrument(tr)
	stopObs, err := common.Observability(ctx, tr, logger)
	if err != nil {
		fatal("observability setup failed", err)
	}
	defer stopObs()
	w, d, err := p.World2023()
	if err != nil {
		fatal("world build failed", err)
	}

	logger.Info("running latency campaign")
	mcfg := mlab.ConfigFromScenario(sp, common.Seed)
	mcfg.Workers = common.Workers
	mcfg.Chaos = p.Chaos
	c, err := mlab.MeasureContext(ctx, d, mlab.Sites(sp.Measurement.PingSites, common.Seed), mcfg)
	if err != nil {
		fatal("latency campaign failed", err)
	}
	logger.Info("clustering")
	a, err := coloc.AnalyzeMixContext(ctx, w, c, []float64{*xi}, common.Workers, sp.Mix())
	if err != nil {
		fatal("clustering failed", err)
	}
	ptrs := rdns.Synthesize(d, rdns.ConfigFromScenario(sp, common.Seed))

	entries := atlas.Build(d, c, a, ptrs, *xi)
	s := atlas.Score(entries)
	fmt.Printf("atlas: %d offnet servers, %.0f%% located (ξ=%.1f), %.0f%% of located correct vs ground truth\n",
		s.Entries, 100*s.Coverage, *xi, 100*s.Accuracy)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("cannot create atlas file", err)
		}
		if err := atlas.WriteCSV(f, entries); err != nil {
			fatal("cannot write atlas", err)
		}
		if err := f.Close(); err != nil {
			fatal("cannot close atlas file", err)
		}
		logger.Info("atlas written", "path", *out)
	}
}
