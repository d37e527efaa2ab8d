// Command dcbench regenerates the paper's tables and figures as text
// reports. Each experiment is addressable by name:
//
//	dcbench -exp figure7        # Figure 7: dev-split characterization
//	dcbench -exp table2         # Table 2: execution accuracy by (M, C) zone
//	dcbench -exp sampling       # §3: block sampling + snapshot iteration cost
//	dcbench -exp consolidation  # Figure 4 / §2.2: query consolidation
//	dcbench -exp slicing        # Figure 5: recipe slicing
//	dcbench -exp ablations      # semantic layer / retrieval / checker / budget
//	dcbench -exp all            # everything (default)
//
// Performance is measured elsewhere: the in-package Go benchmarks and the
// bench/ module (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"datachat/internal/experiments"
)

// config is what the flags set.
type config struct {
	seed    int64
	perZone int
	rows    int
}

// experiment is one named report; the -exp help text and the dispatcher
// both read experimentList.
type experiment struct {
	name string
	run  func(s *experiments.Suite, c config) (string, error)
}

// report renders an experiment's result, or passes its error on.
func report(r interface{ Report() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Report(), nil
}

var experimentList = []experiment{
	{"figure7", func(s *experiments.Suite, c config) (string, error) {
		return report(s.Figure7(c.seed), nil)
	}},
	{"table2", func(s *experiments.Suite, c config) (string, error) {
		return report(s.Table2(experiments.Table2Options{PerZone: c.perZone, Seed: c.seed}))
	}},
	{"sampling", func(_ *experiments.Suite, c config) (string, error) {
		return report(experiments.Sampling(c.rows, []float64{0.1, 0.01}, 10))
	}},
	{"consolidation", func(*experiments.Suite, config) (string, error) {
		return report(experiments.Consolidation(50_000, 8, 5))
	}},
	{"slicing", func(*experiments.Suite, config) (string, error) {
		return report(experiments.Slicing(15))
	}},
	{"ablations", func(s *experiments.Suite, c config) (string, error) {
		var b strings.Builder
		for _, ablate := range []func(perZone int, seed int64) (*experiments.AblationResult, error){
			s.AblateSemanticLayer, s.AblateRetrieval, s.AblateChecker,
			func(perZone int, seed int64) (*experiments.AblationResult, error) {
				return s.AblatePromptBudget(perZone, seed, 120)
			},
		} {
			text, err := report(ablate(10, c.seed))
			if err != nil {
				return "", err
			}
			b.WriteString(text)
		}
		return b.String(), nil
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it returns the exit status (2 for a
// usage error, like the flag package).
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(experimentList)+1)
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	names = append(names, "all")

	var c config
	fs := flag.NewFlagSet("dcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: "+strings.Join(names, ", "))
	fs.Int64Var(&c.seed, "seed", 42, "corpus seed")
	fs.IntVar(&c.perZone, "per-zone", 25, "balanced sample size per zone for table2")
	fs.IntVar(&c.rows, "rows", 500_000, "synthetic cloud table rows for the sampling experiment")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	ran := false
	suite := experiments.NewSuite(1)
	for _, e := range experimentList {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		text, err := e.run(suite, c)
		if err != nil {
			fmt.Fprintf(stderr, "dcbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout, text)
	}
	if !ran {
		fmt.Fprintf(stderr, "dcbench: unknown experiment %q; valid: %s\n", *exp, strings.Join(names, ", "))
		return 2
	}
	return 0
}
