// Command obsprofile analyzes a run's execution timeline offline: it reads a
// run manifest (cmd/reproduce -manifest) and prints the performance profile —
// critical path, top spans by exclusive self-time, and per-region worker
// utilization — as the same Markdown section REPORT.md embeds.
//
//	obsprofile -top 10 out/manifest.json
//	obsprofile -validate-trace out/trace.json out/manifest.json
//
// With -validate-trace the command additionally checks a Perfetto trace
// export (the -trace flag's output) against the trace-event schema and
// summarizes its tracks, so CI can gate on a structurally valid trace
// without loading it in a UI. Exit status: 0 on success, 1 when the trace
// fails validation, 2 on usage or unreadable inputs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"offnetrisk/internal/obs"
)

func main() {
	top := flag.Int("top", 10, "entries in the self-time ranking")
	tracePath := flag.String("validate-trace", "", "also validate this trace-event JSON export and summarize its tracks")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: obsprofile [flags] <manifest.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	m, err := obs.ReadManifest(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsprofile:", err)
		os.Exit(2)
	}
	if len(m.Stages) == 0 {
		fmt.Fprintln(os.Stderr, "obsprofile: manifest has no stages (was the run instrumented?)")
		os.Exit(2)
	}

	prof := obs.BuildProfile(m.Stages, *top)
	fmt.Printf("# Performance profile — %s, seed %d, scenario %s\n\n", m.Tool, m.Seed, m.Scenario)
	fmt.Print(prof.Markdown())

	if *tracePath != "" {
		tf, err := obs.ReadTraceFile(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsprofile:", err)
			os.Exit(2)
		}
		if err := obs.ValidateTrace(tf); err != nil {
			fmt.Fprintln(os.Stderr, "obsprofile: trace INVALID:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace %s: valid trace-event JSON — %d events, %d spans\n",
			*tracePath, len(tf.TraceEvents), len(tf.SpanEvents()))
		if tracks := tf.CounterTracks(); len(tracks) > 0 {
			fmt.Printf("counter tracks: %s\n", strings.Join(tracks, ", "))
		}
		if instants := tf.InstantNames(); len(instants) > 0 {
			fmt.Printf("instant events: %s\n", strings.Join(instants, ", "))
		}
	}
}
