// Command offnetscan runs the §2.2 offnet-discovery pipeline: TLS scans of
// the synthetic Internet at the 2021 and 2023 epochs, certificate-based
// inference with the epoch-appropriate rules, and Table 1 — including the
// stale-methodology ablation showing why the 2021 rules stopped working.
package main

import (
	"flag"
	"fmt"
	"os"

	"offnetrisk/internal/cli"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/offnetmap"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/traffic"
)

func main() {
	common := cli.Register(flag.CommandLine)
	records := flag.String("records", "", "also write the 2023 scan as NDJSON to this file")
	from := flag.String("from", "", "re-run the 2023 inference over an NDJSON scan dump instead of scanning")
	flag.Parse()

	if common.HandleScenarioList() {
		return
	}
	logger := common.Logger("offnetscan")
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
	tr := obs.NewTracer()
	p.Instrument(tr)
	stopObs, err := common.Observability(ctx, tr, logger)
	if err != nil {
		fatal("observability setup failed", err)
	}
	defer stopObs()

	if *from != "" {
		// External-dump mode: parse the NDJSON scan and run the 2023
		// methodology against this seed's IP-to-AS mapping.
		f, err := os.Open(*from)
		if err != nil {
			fatal("cannot open scan dump", err)
		}
		recs, err := scan.ReadNDJSON(f)
		f.Close()
		if err != nil {
			fatal("cannot parse scan dump", err)
		}
		w, _, err := p.World2023()
		if err != nil {
			fatal("world build failed", err)
		}
		inferred := offnetmap.Infer(w, recs, offnetmap.Rules2023())
		fmt.Printf("inference over %s (%d records):\n", *from, len(recs))
		for _, hg := range traffic.All {
			fmt.Printf("  %-8s %d ISPs\n", hg, inferred.ISPCount(hg))
		}
		return
	}

	logger.Debug("running Table 1 pipeline", "seed", common.Seed, "scenario", p.Spec.Name)
	res, err := p.Table1Context(ctx)
	if err != nil {
		fatal("Table 1 pipeline failed", err)
	}
	fmt.Print(res)

	if *records != "" {
		_, d, err := p.World2023()
		if err != nil {
			fatal("world build failed", err)
		}
		recs, err := scan.Simulate(d, scan.ConfigFromScenario(p.Spec, common.Seed))
		if err != nil {
			fatal("scan simulation failed", err)
		}
		f, err := os.Create(*records)
		if err != nil {
			fatal("cannot create records file", err)
		}
		if err := scan.WriteNDJSON(f, recs); err != nil {
			fatal("cannot write records", err)
		}
		if err := f.Close(); err != nil {
			fatal("cannot close records file", err)
		}
		logger.Info("scan records written", "count", len(recs), "path", *records)
	}

	fmt.Println("\nground truth check (simulation-only capability):")
	for _, row := range res.Rows {
		status := "exact"
		if row.ISPs2021 != row.Truth2021 || row.ISPs2023 != row.Truth2023 {
			status = "MISMATCH"
		}
		fmt.Printf("  %-8s truth %d→%d, inferred %d→%d (%s)\n",
			row.Hypergiant, row.Truth2021, row.Truth2023, row.ISPs2021, row.ISPs2023, status)
	}
}
