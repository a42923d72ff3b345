// Package report scores a full reproduction run against the paper's
// reported shapes: each check encodes one claim from a table, figure, or
// section as an acceptance band, and the package renders a verdict table.
// cmd/reproduce appends this table to REPORT.md, so any seed/scenario run
// self-assesses against the paper.
package report

import (
	"fmt"
	"strings"
)

// Check is one claim-level comparison.
type Check struct {
	// ID names the artifact (e.g. "Table1/Google-growth").
	ID string
	// Paper is the paper's reported value, as text.
	Paper string
	// Got is the measured value.
	Got float64
	// Lo and Hi bound the acceptance band for shape agreement.
	Lo, Hi float64
	// Unit annotates Got (e.g. "%", "×").
	Unit string
}

// Pass reports whether the measured value falls inside the band.
func (c Check) Pass() bool { return c.Got >= c.Lo && c.Got <= c.Hi }

// Suite accumulates checks.
type Suite struct {
	Checks []Check
}

// Add appends a check.
func (s *Suite) Add(id, paper string, got, lo, hi float64, unit string) {
	s.Checks = append(s.Checks, Check{ID: id, Paper: paper, Got: got, Lo: lo, Hi: hi, Unit: unit})
}

// AddBool appends a directional claim: pass encodes as 1 inside [1,1].
func (s *Suite) AddBool(id, paper string, pass bool) {
	got := 0.0
	if pass {
		got = 1
	}
	s.Checks = append(s.Checks, Check{ID: id, Paper: paper, Got: got, Lo: 1, Hi: 1, Unit: "bool"})
}

// Passed counts passing checks.
func (s *Suite) Passed() int {
	n := 0
	for _, c := range s.Checks {
		if c.Pass() {
			n++
		}
	}
	return n
}

// AllPassed reports whether every check passed.
func (s *Suite) AllPassed() bool { return s.Passed() == len(s.Checks) }

// Failed returns the failing checks.
func (s *Suite) Failed() []Check {
	var out []Check
	for _, c := range s.Checks {
		if !c.Pass() {
			out = append(out, c)
		}
	}
	return out
}

// Markdown renders the verdict table.
func (s *Suite) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| check | paper | measured | band | verdict |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|\n")
	for _, c := range s.Checks {
		verdict := "✅"
		if !c.Pass() {
			verdict = "❌"
		}
		if c.Unit == "bool" {
			state := "holds"
			if !c.Pass() {
				state = "violated"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | — | %s |\n", c.ID, c.Paper, state, verdict)
			continue
		}
		fmt.Fprintf(&b, "| %s | %s | %.1f%s | [%.1f, %.1f] | %s |\n",
			c.ID, c.Paper, c.Got, c.Unit, c.Lo, c.Hi, verdict)
	}
	fmt.Fprintf(&b, "\n**%d/%d checks passed**\n", s.Passed(), len(s.Checks))
	return b.String()
}
