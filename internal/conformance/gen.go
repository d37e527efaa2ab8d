package conformance

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"datachat/internal/dataset"
)

// The generated corpus is built from three small fixtures chosen to force
// 3VL decisions everywhere: people has null ages, orders has a null amount
// and a dangling person_id (left-join probe), wh.events lives in a cloud
// database so scans, pushdown, and the degrade ladder are reachable.
const peopleCSV = `id,age,name,city
1,34,ann,austin
2,19,bob,boston
3,,cara,chicago
4,45,dan,austin
5,28,eve,boston
6,61,fay,chicago
7,23,gus,austin
8,,hal,boston
9,52,ivy,chicago
10,31,joe,austin`

const ordersCSV = `oid,person_id,amount,status
100,1,25.5,paid
101,2,10,open
102,1,300,paid
103,3,,open
104,5,42.75,paid
105,7,5.25,refunded
106,9,120,paid
107,2,60,open
108,11,75,paid
109,4,18.5,paid`

const eventsCSV = `eid,kind,val
1,click,10
2,view,3
3,click,7
4,buy,99
5,view,1
6,click,12`

var fixtureCSV = map[string]string{
	"people":    peopleCSV,
	"orders":    ordersCSV,
	"wh.events": eventsCSV,
}

// genSpec is one corpus entry before expectations are computed. The gel
// field is the source program for every dialect: pyapi and recipe bodies
// are derived from its canonical lowering through the product's own
// renderers, so the corpus can never drift from what the front ends emit.
type genSpec struct {
	name     string
	tags     string
	dialect  string // "" = gel
	kind     string
	fixtures []string
	gel      []string
	phrase   string // phrase-dialect sentence (fixtures[0] is the dataset)
	explain  []string
	dryErr   string
	execErr  string
}

func corpusSpecs() []genSpec {
	g := func(lines ...string) []string { return lines }
	people := []string{"people"}
	orders := []string{"orders"}
	both := []string{"people", "orders"}
	events := []string{"wh.events"}

	var specs []genSpec
	add := func(s genSpec) { specs = append(specs, s) }

	// --- filters: comparison operators, strings, 3VL nulls, compounds ---
	filters := []struct{ name, tags, cond string }{
		{"filter-age-ge", "filter int", "age >= 30"},
		{"filter-age-gt", "filter int", "age > 30"},
		{"filter-age-le", "filter int nulls", "age <= 30"},
		{"filter-age-lt", "filter int nulls", "age < 30"},
		{"filter-age-eq", "filter int", "age = 45"},
		{"filter-age-ne", "filter int nulls", "age <> 34"},
		{"filter-city-eq", "filter string", "city = 'austin'"},
		{"filter-city-ne", "filter string", "city <> 'austin'"},
		{"filter-null", "filter nulls 3vl", "age is null"},
		{"filter-not-null", "filter nulls 3vl", "age is not null"},
		{"filter-and", "filter compound", "age >= 20 and city = 'austin'"},
		{"filter-or", "filter compound", "city = 'boston' or city = 'chicago'"},
		{"filter-between", "filter range", "age between 20 and 40"},
		{"filter-in", "filter list", "city in ('austin', 'chicago')"},
		{"filter-like", "filter string", "name like 'a%'"},
		{"filter-at-least", "filter gelphrase", "age is at least 45"},
	}
	for _, f := range filters {
		add(genSpec{name: f.name, tags: f.tags, fixtures: people,
			gel: g("Use the dataset people", "Keep the rows where "+f.cond)})
	}
	add(genSpec{name: "drop-age-ge", tags: "filter drop nulls 3vl", fixtures: people,
		gel: g("Use the dataset people", "Drop the rows where age >= 30")})
	add(genSpec{name: "drop-city-eq", tags: "filter drop string", fixtures: people,
		gel: g("Use the dataset people", "Drop the rows where city = 'boston'")})
	add(genSpec{name: "filter-amount-ge", tags: "filter float nulls 3vl", fixtures: orders,
		gel: g("Use the dataset orders", "Keep the rows where amount >= 40")})
	add(genSpec{name: "filter-status-or-null", tags: "filter compound nulls", fixtures: orders,
		gel: g("Use the dataset orders", "Keep the rows where status = 'open' or amount is null")})

	// --- sort / limit ---
	add(genSpec{name: "sort-age-asc", tags: "sort nulls", fixtures: people,
		gel: g("Use the dataset people", "Sort the rows by age")})
	add(genSpec{name: "sort-age-desc", tags: "sort nulls", fixtures: people,
		gel: g("Use the dataset people", "Sort the rows by age in descending order")})
	add(genSpec{name: "sort-multi", tags: "sort multikey", fixtures: people,
		gel: g("Use the dataset people", "Sort the rows by city, age")})
	add(genSpec{name: "sort-name-desc", tags: "sort string", fixtures: people,
		gel: g("Use the dataset people", "Sort the rows by name in descending order")})
	add(genSpec{name: "limit-3", tags: "limit", fixtures: people,
		gel: g("Use the dataset people", "Limit the data to 3 rows")})
	add(genSpec{name: "limit-beyond", tags: "limit edge", fixtures: people,
		gel: g("Use the dataset people", "Limit the data to 100 rows")})
	add(genSpec{name: "sort-limit", tags: "sort limit topk", fixtures: people,
		gel: g("Use the dataset people",
			"Sort the rows by age in descending order",
			"Limit the data to 3 rows")})

	// --- aggregation: every function, grouped and global, aliases, nulls ---
	aggs := []struct {
		name, tags string
		lines      []string
	}{
		{"agg-count", "agg count", g("Use the dataset people", "Compute the count of records")},
		{"agg-count-col", "agg count nulls 3vl", g("Use the dataset people", "Compute the count of age")},
		{"agg-sum", "agg sum nulls", g("Use the dataset people", "Compute the sum of age")},
		{"agg-avg", "agg avg nulls", g("Use the dataset people", "Compute the avg of age")},
		{"agg-min", "agg min", g("Use the dataset people", "Compute the min of age")},
		{"agg-max", "agg max", g("Use the dataset people", "Compute the max of age")},
		{"agg-count-distinct", "agg distinct", g("Use the dataset people", "Compute the count_distinct of city")},
		{"agg-by-city-median-stddev", "agg groupby valueset nulls", g("Use the dataset people", "Compute the median of age and stddev of age for each city")},
		{"agg-by-city-count", "agg groupby", g("Use the dataset people", "Compute the count of records for each city")},
		{"agg-by-city-sum", "agg groupby nulls 3vl", g("Use the dataset people", "Compute the sum of age for each city")},
		{"agg-by-city-avg", "agg groupby nulls", g("Use the dataset people", "Compute the avg of age for each city")},
		{"agg-by-city-minmax", "agg groupby multi", g("Use the dataset people", "Compute the min of age and max of age for each city")},
		{"agg-by-status-sum", "agg groupby nulls 3vl", g("Use the dataset orders", "Compute the sum of amount for each status")},
		{"agg-multi", "agg multi", g("Use the dataset people", "Compute the count of records and sum of age and avg of age")},
		{"agg-two-keys", "agg groupby multikey", g("Use the dataset orders", "Compute the count of records for each status, person_id")},
		{"agg-alias", "agg alias", g("Use the dataset people", "Compute the sum of age and call the computed columns total_age")},
		{"agg-alias-multi", "agg alias multi", g("Use the dataset people", "Compute the count of records and sum of age and call the computed columns n, total")},
	}
	for _, a := range aggs {
		fx := people
		if strings.Contains(a.lines[0], "orders") {
			fx = orders
		}
		add(genSpec{name: a.name, tags: a.tags, fixtures: fx, gel: a.lines})
	}

	// --- distinct ---
	add(genSpec{name: "distinct-city", tags: "distinct project", fixtures: people,
		gel: g("Use the dataset people", "Keep the columns city", "Remove duplicate rows")})
	add(genSpec{name: "distinct-over-city", tags: "distinct keyed", fixtures: people,
		gel: g("Use the dataset people", "Remove duplicate rows over city")})
	add(genSpec{name: "distinct-status", tags: "distinct project sort", fixtures: orders,
		gel: g("Use the dataset orders", "Keep the columns status", "Remove duplicate rows", "Sort the rows by status")})

	// --- column operations ---
	add(genSpec{name: "keep-columns", tags: "project", fixtures: people,
		gel: g("Use the dataset people", "Keep the columns id, name")})
	add(genSpec{name: "drop-columns", tags: "project", fixtures: people,
		gel: g("Use the dataset people", "Drop the columns city")})
	add(genSpec{name: "rename-column", tags: "rename", fixtures: people,
		gel: g("Use the dataset people", "Rename the column name to full_name")})
	add(genSpec{name: "new-column-formula", tags: "derive nulls 3vl", fixtures: people,
		gel: g("Use the dataset people", "Create a new column age2 as age * 2")})
	add(genSpec{name: "new-column-text", tags: "derive literal", fixtures: people,
		gel: g("Use the dataset people", "Create a new column origin with text earth")})
	add(genSpec{name: "change-type", tags: "cast", fixtures: people,
		gel: g("Use the dataset people", "Change the type of age to float")})
	add(genSpec{name: "fill-null", tags: "nulls fill", fixtures: people,
		gel: g("Use the dataset people", "Fill the null values in age with 0")})
	add(genSpec{name: "replace-values", tags: "replace", fixtures: people,
		gel: g("Use the dataset people", "Replace austin with atx in the column city")})

	// --- joins ---
	add(genSpec{name: "join-inner", tags: "join", fixtures: both,
		gel: g("Join the datasets people and orders on id = person_id", "Sort the rows by oid")})
	add(genSpec{name: "join-left", tags: "join left nulls 3vl", fixtures: both,
		gel: g("Left join the datasets people and orders on id = person_id", "Sort the rows by id, oid")})
	add(genSpec{name: "join-filter", tags: "join filter", fixtures: both,
		gel: g("Join the datasets people and orders on id = person_id",
			"Keep the rows where amount >= 50", "Sort the rows by oid")})
	add(genSpec{name: "join-compute", tags: "join agg", fixtures: both,
		gel: g("Join the datasets people and orders on id = person_id",
			"Compute the sum of amount for each city", "Sort the rows by city")})

	// --- concatenation ---
	add(genSpec{name: "concat-halves", tags: "concat nulls 3vl", fixtures: people,
		gel: g("Use the dataset people", "Keep the rows where age >= 30",
			"Use the dataset people", "Keep the rows where age < 30",
			"Concatenate the datasets s2 and s4", "Sort the rows by id")})
	add(genSpec{name: "concat-dedupe", tags: "concat dedupe", fixtures: people,
		gel: g("Use the dataset people", "Keep the rows where age >= 30",
			"Use the dataset people", "Keep the rows where age >= 45",
			"Concatenate the datasets s2 and s4 remove all duplicates", "Sort the rows by id")})
	add(genSpec{name: "concat-self", tags: "concat", fixtures: people,
		gel: g("Concatenate the datasets people and people", "Sort the rows by id")})

	// --- multi-step chains ---
	add(genSpec{name: "chain-filter-sort-limit", tags: "chain", fixtures: people,
		gel: g("Use the dataset people", "Keep the rows where age is not null",
			"Sort the rows by age in descending order", "Limit the data to 4 rows")})
	add(genSpec{name: "chain-filter-agg", tags: "chain agg", fixtures: people,
		gel: g("Use the dataset people",
			"Keep the rows where city = 'austin' or city = 'boston'",
			"Compute the avg of age for each city", "Sort the rows by city")})
	add(genSpec{name: "chain-rename-filter", tags: "chain rename", fixtures: people,
		gel: g("Use the dataset people", "Rename the column age to years",
			"Keep the rows where years >= 30")})
	add(genSpec{name: "chain-newcol-agg", tags: "chain derive agg nulls", fixtures: people,
		gel: g("Use the dataset people", "Create a new column age2 as age * 2",
			"Compute the sum of age2")})
	add(genSpec{name: "chain-drop-distinct-sort", tags: "chain", fixtures: people,
		gel: g("Use the dataset people", "Drop the columns id, name",
			"Remove duplicate rows", "Sort the rows by city, age")})
	add(genSpec{name: "chain-long", tags: "chain deep", fixtures: people,
		gel: g("Use the dataset people", "Keep the rows where age is not null",
			"Create a new column decade as age / 10", "Keep the columns city, decade",
			"Sort the rows by city, decade", "Limit the data to 6 rows")})

	// --- visualization (charts + message instead of a table) ---
	add(genSpec{name: "viz-age", tags: "viz", fixtures: people,
		gel: g("Use the dataset people", "Visualize age")})
	add(genSpec{name: "viz-age-by-city", tags: "viz groupby", fixtures: people,
		gel: g("Use the dataset people", "Visualize age by city")})
	add(genSpec{name: "viz-amount-by-status", tags: "viz groupby nulls", fixtures: orders,
		gel: g("Use the dataset orders", "Visualize amount by status")})
	add(genSpec{name: "viz-filtered", tags: "viz filter", fixtures: people,
		gel: g("Use the dataset people", "Visualize age where city = 'austin'")})
	add(genSpec{name: "viz-after-filter", tags: "viz chain", fixtures: people,
		gel: g("Use the dataset people", "Keep the rows where age >= 25", "Visualize age by city")})

	// --- phrase dialect (§4.8 phrase-based front end, body verbatim) ---
	add(genSpec{name: "phrase-viz-age", tags: "phrase viz", dialect: "phrase", fixtures: people,
		phrase: "Visualize age"})
	add(genSpec{name: "phrase-viz-age-by-city", tags: "phrase viz groupby", dialect: "phrase", fixtures: people,
		phrase: "Visualize age by city"})
	add(genSpec{name: "phrase-viz-amount", tags: "phrase viz", dialect: "phrase", fixtures: orders,
		phrase: "Visualize amount"})
	add(genSpec{name: "phrase-viz-amount-by-status", tags: "phrase viz groupby", dialect: "phrase", fixtures: orders,
		phrase: "Visualize amount by status"})
	add(genSpec{name: "phrase-viz-filtered", tags: "phrase viz filter", dialect: "phrase", fixtures: people,
		phrase: "Visualize age where city = 'austin'"})
	add(genSpec{name: "phrase-viz-id-by-city", tags: "phrase viz", dialect: "phrase", fixtures: people,
		phrase: "Visualize id by city"})

	// --- pyapi dialect (bodies rendered from the canonical lowering) ---
	pyapis := []struct {
		name, tags string
		fx         []string
		lines      []string
	}{
		{"py-filter-age", "pyapi filter", people, g("Use the dataset people", "Keep the rows where age >= 40")},
		{"py-filter-city", "pyapi filter string", people, g("Use the dataset people", "Keep the rows where city = 'chicago'")},
		{"py-sort-desc", "pyapi sort", people, g("Use the dataset people", "Sort the rows by age in descending order")},
		{"py-agg-count-by-city", "pyapi agg groupby", people, g("Use the dataset people", "Compute the count of records for each city")},
		{"py-agg-sum-by-status", "pyapi agg groupby nulls", orders, g("Use the dataset orders", "Compute the sum of amount for each status")},
		{"py-keep-columns", "pyapi project", people, g("Use the dataset people", "Keep the columns id, city")},
		{"py-new-column", "pyapi derive", people, g("Use the dataset people", "Create a new column older as age + 1")},
		{"py-join", "pyapi join", both, g("Join the datasets people and orders on id = person_id", "Sort the rows by oid")},
		{"py-chain", "pyapi chain", people, g("Use the dataset people", "Keep the rows where age is not null",
			"Sort the rows by age", "Limit the data to 5 rows")},
		{"py-limit", "pyapi limit", people, g("Use the dataset people", "Limit the data to 2 rows")},
	}
	for _, p := range pyapis {
		add(genSpec{name: p.name, tags: p.tags, dialect: "pyapi", fixtures: p.fx, gel: p.lines})
	}

	// --- recipe dialect (raw canonical steps as JSON) ---
	recipes := []struct {
		name, tags string
		fx         []string
		lines      []string
	}{
		{"rec-filter-in", "recipe filter list", people, g("Use the dataset people", "Keep the rows where city in ('austin', 'boston')")},
		{"rec-agg-alias", "recipe agg alias", people, g("Use the dataset people", "Compute the max of age and call the computed columns oldest")},
		{"rec-join-left", "recipe join left nulls", both, g("Left join the datasets people and orders on id = person_id", "Sort the rows by id, oid")},
		{"rec-chain", "recipe chain", people, g("Use the dataset people", "Keep the rows where age >= 20",
			"Keep the columns id, age", "Sort the rows by age")},
		{"rec-sort-desc-multi", "recipe sort multikey", people, g("Use the dataset people", "Sort the rows by city, age in descending order")},
		{"rec-limit-filter", "recipe chain limit", orders, g("Use the dataset orders", "Keep the rows where status = 'paid'", "Limit the data to 3 rows")},
	}
	for _, r := range recipes {
		add(genSpec{name: r.name, tags: r.tags, dialect: "recipe", fixtures: r.fx, gel: r.lines})
	}

	// --- cloud scans: LoadTable, pushdown shape, degrade ladder ---
	add(genSpec{name: "load-events", tags: "cloud scan", fixtures: events,
		gel: g("Load the table events from the database wh", "Sort the rows by eid")})
	add(genSpec{name: "load-events-filter", tags: "cloud scan pushdown", fixtures: events,
		gel:     g("Load the table events from the database wh", "Keep the rows where val >= 5"),
		explain: []string{"pushdown condition", "pass pushdown fired"}})
	add(genSpec{name: "load-events-columns", tags: "cloud scan pushdown project", fixtures: events,
		gel:     g("Load the table events from the database wh", "Keep the columns eid, kind"),
		explain: []string{"pushdown columns", "pass pushdown fired"}})
	add(genSpec{name: "load-events-agg", tags: "cloud scan agg", fixtures: events,
		gel: g("Load the table events from the database wh",
			"Compute the sum of val for each kind", "Sort the rows by kind")})

	// --- plan-shape assertions on session datasets ---
	add(genSpec{name: "explain-fuse-filters", tags: "explain fuse", fixtures: people,
		gel:     g("Use the dataset people", "Keep the rows where age >= 20", "Keep the rows where age <= 50"),
		explain: []string{"pass fuse fired", "tasks <= 2"}})
	add(genSpec{name: "explain-fuse-projections", tags: "explain fuse project", fixtures: people,
		gel:     g("Use the dataset people", "Keep the columns id, age, name", "Keep the columns id, age"),
		explain: []string{"pass fuse fired", "tasks <= 2"}})
	add(genSpec{name: "explain-linear-no-slice", tags: "explain slice", fixtures: people,
		gel:     g("Use the dataset people", "Keep the rows where age >= 30", "Sort the rows by age"),
		explain: []string{"pass slice not-fired", "pass cache-probe not-fired"}})
	add(genSpec{name: "explain-fuse-limits", tags: "explain fuse limit", fixtures: people,
		gel:     g("Use the dataset people", "Limit the data to 5 rows", "Limit the data to 3 rows"),
		explain: []string{"pass fuse fired", "tasks <= 2"}})

	// --- degraded: every scan fails permanently, the degrade ladder answers ---
	add(genSpec{name: "degraded-scan", tags: "cloud degraded faults", kind: "degraded", fixtures: events,
		gel: g("Load the table events from the database wh", "Sort the rows by eid")})
	add(genSpec{name: "degraded-agg", tags: "cloud degraded faults agg", kind: "degraded", fixtures: events,
		gel: g("Load the table events from the database wh",
			"Compute the count of records for each kind", "Sort the rows by kind")})

	// --- lock: §2.4 single-writer contention around the pipeline ---
	add(genSpec{name: "lock-filter", tags: "lock contention", kind: "lock", fixtures: people,
		gel: g("Use the dataset people", "Keep the rows where age >= 30")})
	add(genSpec{name: "lock-join", tags: "lock contention join", kind: "lock", fixtures: both,
		gel: g("Join the datasets people and orders on id = person_id", "Sort the rows by oid")})

	// --- cache: replaying the same recipe must hit the sub-DAG cache ---
	add(genSpec{name: "cache-chain", tags: "cache replay", kind: "cache", fixtures: people,
		gel: g("Use the dataset people", "Keep the rows where age >= 25", "Sort the rows by age")})
	add(genSpec{name: "cache-agg", tags: "cache replay agg", kind: "cache", fixtures: people,
		gel: g("Use the dataset people", "Compute the count of records for each city", "Sort the rows by city")})

	// --- runtime errors: type-check clean, fail identically on all routes ---
	add(genSpec{name: "error-sql-missing-table", tags: "error sql", fixtures: people,
		gel:     g("Run the sql query select * from nope"),
		execErr: "nope"})

	// --- dry-run rejections: flagged by planning, never executed ---
	add(genSpec{name: "dry-bad-filter-column", tags: "dryrun typecheck", fixtures: people,
		gel:    g("Use the dataset people", "Keep the rows where agee >= 30"),
		dryErr: `unknown column "agee"`})
	add(genSpec{name: "dry-bad-sort-column", tags: "dryrun typecheck sort", fixtures: people,
		gel:    g("Use the dataset people", "Sort the rows by height"),
		dryErr: `unknown column "height"`})
	add(genSpec{name: "dry-bad-agg-column", tags: "dryrun typecheck agg", fixtures: people,
		gel:    g("Use the dataset people", "Compute the sum of salary for each city"),
		dryErr: `unknown aggregate column "salary"`})
	add(genSpec{name: "dry-bad-dropped-column", tags: "dryrun typecheck project", fixtures: people,
		gel:    g("Use the dataset people", "Drop the columns age", "Keep the rows where age >= 30"),
		dryErr: `unknown column "age"`})

	return specs
}

// buildCase materializes one spec as a Case (body in its dialect, fixtures
// attached, expectations still empty).
func buildCase(s genSpec) (*Case, error) {
	c := &Case{Name: s.name, Tags: strings.Fields(s.tags), Kind: s.kind, ExpectCharts: -1,
		ExpectError: s.execErr, DryRunError: s.dryErr}
	for _, f := range s.fixtures {
		csv, ok := fixtureCSV[f]
		if !ok {
			return nil, fmt.Errorf("conformance: gen %s: unknown fixture %q", s.name, f)
		}
		if dot := strings.IndexByte(f, '.'); dot > 0 {
			c.DBFixtures = append(c.DBFixtures, DBFixture{DB: f[:dot], Table: f[dot+1:], CSV: csv})
		} else {
			c.Fixtures = append(c.Fixtures, Fixture{Name: f, CSV: csv})
		}
	}
	if len(s.explain) > 0 {
		asserts, err := parseExplainAsserts(strings.Join(s.explain, "\n"))
		if err != nil {
			return nil, fmt.Errorf("conformance: gen %s: %w", s.name, err)
		}
		c.Explain = asserts
	}
	dialect := s.dialect
	if dialect == "" {
		dialect = "gel"
	}
	switch dialect {
	case "gel":
		c.Dialect = "gel"
		c.Body = strings.Join(s.gel, "\n")
	case "phrase":
		c.Dialect = "phrase"
		c.PhraseDataset = s.fixtures[0]
		c.Body = s.phrase
	case "pyapi", "recipe":
		body, err := convertBody(dialect, strings.Join(s.gel, "\n"))
		if err != nil {
			return nil, fmt.Errorf("conformance: gen %s: %w", s.name, err)
		}
		c.Dialect = dialect
		c.Body = body
	default:
		return nil, fmt.Errorf("conformance: gen %s: unknown dialect %q", s.name, dialect)
	}
	if err := Lower(c); err != nil {
		return nil, err
	}
	return c, nil
}

// convertBody lowers a GEL program and re-renders it in another dialect
// through the product's own renderers.
func convertBody(dialect, gelBody string) (string, error) {
	tmp := &Case{Name: "convert", Dialect: "gel", Body: gelBody}
	if err := Lower(tmp); err != nil {
		return "", err
	}
	switch dialect {
	case "pyapi":
		reg, _ := frontEnds()
		var lines []string
		for _, inv := range invsOf(tmp.Steps) {
			line, err := reg.RenderPython(inv)
			if err != nil {
				return "", err
			}
			lines = append(lines, line)
		}
		return strings.Join(lines, "\n"), nil
	case "recipe":
		j, err := json.MarshalIndent(tmp.Steps, "", "  ")
		if err != nil {
			return "", err
		}
		return string(j), nil
	}
	return "", fmt.Errorf("cannot convert to %q", dialect)
}

// FillExpectations computes a case's expected outcome by running the
// reference route (recipe replay) — or, for dry-run rejection cases, by
// confirming the planner flags them. The result lands back in the case as
// its golden expectation.
func FillExpectations(c *Case) error {
	if c.DryRunError != "" {
		_, err := DryRun(c)
		if err == nil {
			return fmt.Errorf("conformance: gen %s: dry-run succeeded, want error containing %q", c.Name, c.DryRunError)
		}
		if !strings.Contains(err.Error(), c.DryRunError) {
			return fmt.Errorf("conformance: gen %s: dry-run error %q does not contain %q", c.Name, err.Error(), c.DryRunError)
		}
		return nil
	}
	rr, err := runRecipe(c)
	if err != nil {
		return fmt.Errorf("conformance: gen %s: %w", c.Name, err)
	}
	if c.ExpectError != "" {
		if rr.Err == nil {
			return fmt.Errorf("conformance: gen %s: succeeded, want error containing %q", c.Name, c.ExpectError)
		}
		if !strings.Contains(rr.Err.Error(), c.ExpectError) {
			return fmt.Errorf("conformance: gen %s: error %q does not contain %q", c.Name, rr.Err.Error(), c.ExpectError)
		}
		return nil
	}
	if rr.Err != nil {
		return fmt.Errorf("conformance: gen %s: reference route failed: %w", c.Name, rr.Err)
	}
	if rr.Table != nil {
		var b strings.Builder
		if err := dataset.WriteCSV(rr.Table, &b); err != nil {
			return fmt.Errorf("conformance: gen %s: %w", c.Name, err)
		}
		c.Expect = strings.TrimRight(b.String(), "\n")
	}
	if rr.NumCharts > 0 {
		c.ExpectCharts = rr.NumCharts
		c.ExpectMessage = rr.Message
	}
	c.ExpectDegraded = rr.Degraded
	return nil
}

// Generate builds the full deterministic corpus with expectations filled.
func Generate() ([]*Case, error) {
	specs := corpusSpecs()
	seen := map[string]bool{}
	cases := make([]*Case, 0, len(specs))
	for _, s := range specs {
		if seen[s.name] {
			return nil, fmt.Errorf("conformance: gen: duplicate case name %q", s.name)
		}
		seen[s.name] = true
		c, err := buildCase(s)
		if err != nil {
			return nil, err
		}
		if err := FillExpectations(c); err != nil {
			return nil, err
		}
		if errs := Lint(c); len(errs) > 0 {
			return nil, fmt.Errorf("conformance: gen %s: %v", c.Name, errs[0])
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// WriteCorpus writes generated cases to dir as gen_<name>.case files,
// removing stale gen_ files no longer produced.
func WriteCorpus(dir string, cases []*Case) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, c := range cases {
		name := "gen_" + c.Name + ".case"
		want[name] = true
		if err := os.WriteFile(filepath.Join(dir, name), []byte(c.Format()), 0o644); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "gen_") && strings.HasSuffix(name, ".case") && !want[name] {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
