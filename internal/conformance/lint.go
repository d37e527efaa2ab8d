package conformance

import (
	"fmt"
	"path/filepath"
	"strings"

	"datachat/internal/dataset"
	"datachat/internal/recipe"
)

// Lint checks one loaded (and lowered) case for structural problems that
// would make a run's failure confusing: missing fixtures, dangling input
// references, un-parseable expect blocks, conflicting expectations. It
// returns every problem, not just the first.
func Lint(c *Case) []error {
	var errs []error
	report := func(format string, a ...any) {
		errs = append(errs, fmt.Errorf("%s: %s", c.Name, fmt.Sprintf(format, a...)))
	}
	if c.Path != "" {
		base := strings.TrimSuffix(filepath.Base(c.Path), ".case")
		base = strings.TrimPrefix(base, "gen_")
		if base != c.Name {
			report("file %s does not match case name (want %s.case or gen_%s.case)", filepath.Base(c.Path), c.Name, c.Name)
		}
	}
	fixtures := map[string]bool{}
	for _, f := range c.Fixtures {
		if fixtures[strings.ToLower(f.Name)] {
			report("duplicate fixture %q", f.Name)
		}
		fixtures[strings.ToLower(f.Name)] = true
		if _, err := dataset.ReadCSVString(f.Name, f.CSV); err != nil {
			report("fixture %s: %v", f.Name, err)
		}
	}
	for _, f := range c.DBFixtures {
		if _, err := dataset.ReadCSVString(f.Table, f.CSV); err != nil {
			report("fixture %s.%s: %v", f.DB, f.Table, err)
		}
	}
	if len(c.Steps) == 0 {
		report("lowered to zero steps")
		return errs
	}
	r := &recipe.Recipe{Name: c.Name, Steps: c.Steps}
	reg, parser := frontEnds()
	if err := r.Validate(reg); err != nil {
		report("canonical program: %v", err)
	}
	// A GEL line must survive parse → render → parse: the recipe view shows
	// the rendered sentence, and replaying it must mean the same step.
	if c.Dialect == "gel" {
		for _, line := range strings.Split(c.Body, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			inv, err := parser.Parse(line)
			if err == nil {
				_, err = parser.RoundTrip(inv)
			}
			if err != nil {
				report("GEL line %q does not round-trip: %v", line, err)
			}
		}
	}
	// Every external input must be a declared fixture.
	produced := map[string]bool{}
	for _, step := range c.Steps {
		for _, in := range step.Inputs {
			key := strings.ToLower(in)
			if !produced[key] && !fixtures[key] {
				report("step %s consumes %q, which is neither a fixture nor an earlier output", step.Skill, in)
			}
		}
		if step.Output != "" {
			produced[strings.ToLower(step.Output)] = true
		}
	}
	if c.Expect != "" {
		if _, err := dataset.ReadCSVString("expect", c.Expect); err != nil {
			report("expect block: %v", err)
		}
	}
	if c.ExpectError != "" && (c.Expect != "" || c.ExpectMessage != "" || c.ExpectCharts >= 0) {
		report("error: conflicts with expect/expect-message/expect-charts")
	}
	if c.DryRunError != "" && c.ExpectError != "" {
		report("dryrun-error and error are mutually exclusive")
	}
	if c.Kind == "degraded" && len(c.DBFixtures) == 0 {
		report("kind degraded needs a cloud fixture (fixture <db>.<table>:)")
	}
	if c.ExpectDegraded && c.Kind != "degraded" && c.BudgetBytes <= 0 {
		report("expect-degraded requires kind: degraded or budget-bytes:")
	}
	if c.BudgetBytes < 0 {
		report("budget-bytes must be positive")
	}
	if c.BudgetBytes > 0 && len(c.DBFixtures) == 0 {
		report("budget-bytes needs a cloud fixture (fixture <db>.<table>:) for the planner to cost")
	}
	if c.ExpectDegradedNote != "" && !c.ExpectDegraded {
		report("expect-degraded-note requires expect-degraded: true")
	}
	if !c.HasExpectation() {
		report("case asserts nothing beyond route agreement; add expect:, expect-message:, expect-charts:, error:, dryrun-error:, or explain:")
	}
	return errs
}

// LintDir loads and lints every case under dir.
func LintDir(dir string) ([]*Case, []error) {
	cases, err := LoadDir(dir)
	if err != nil {
		return nil, []error{err}
	}
	var errs []error
	for _, c := range cases {
		errs = append(errs, Lint(c)...)
	}
	return cases, errs
}
