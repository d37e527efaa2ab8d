// GDP forecast: the Figure 2 scenario, end to end. The exact 10-step GEL
// recipe from the paper's editor screenshot runs line by line — with a
// breakpoint, the way the IDE debugger works — producing the "Actual vs
// Predicted" line chart of Figure 2b.
//
//	go run ./examples/gdpforecast
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"datachat/internal/dag"
	"datachat/internal/gel"
	"datachat/internal/recipe"
	"datachat/internal/skills"
	"datachat/internal/viz"
)

// fredCSV synthesizes a quarterly real-GDP-like series (1995Q1–2020Q4) with
// a steady pre-2020 trend and a 2020 dip, so the pre-2020 trend projection
// visibly diverges from actuals — the "economic activity gap" the Figure 2
// annotation calls out.
func fredCSV() string {
	var b strings.Builder
	b.WriteString("DATE,GDPC1\n")
	year, month := 1995, 1
	for q := 0; q < 104; q++ {
		val := 11000.0 + 46.5*float64(q)
		if year == 2020 {
			val -= 900 // pandemic dip
		}
		b.WriteString(time.Date(year, time.Month(month), 1, 0, 0, 0, 0, time.UTC).Format("2006-01-02"))
		b.WriteString(",")
		b.WriteString(strconv.FormatFloat(val, 'f', 1, 64))
		b.WriteString("\n")
		month += 3
		if month > 12 {
			month = 1
			year++
		}
	}
	return b.String()
}

func main() {
	const url = "https://fred.stlouisfed.org/graph/fredgraph.csv?fo=open%20sans&id=GDPC1&fq=Quarterly"
	reg := skills.NewRegistry()
	ctx := skills.NewContext()
	ctx.PutFile(url, fredCSV())
	executor := dag.NewExecutor(reg, ctx)
	parser := gel.NewParser(reg)
	parser.Now = time.Date(2023, 6, 18, 0, 0, 0, 0, time.UTC)

	// The recipe exactly as the Figure 2a editor shows it.
	lines := []string{
		"Load data from the URL " + url,
		"Keep the rows where DATE is between the dates 01-01-2005 to 12-31-2020",
		"Predict time series with measure columns GDPC1 for the next 12 values of DATE",
		"Keep the columns DATE, GDPC1, RecordType",
		"Use the dataset fredgraph, version 1",
		"Create a new column RecordType with text Actual",
		"Keep the columns DATE, GDPC1, RecordType",
		"Concatenate the datasets fredgraph and PredictedTimeSeries_GDPC1 remove all duplicates",
		"Keep the rows where DATE is after Today - 10 years",
		"Plot a line chart with the x-axis DATE, the y-axis GDPC1, for each RecordType",
	}
	runner := gel.NewRunner(parser, executor, lines)

	// Debug like the Figure 2a editor: breakpoint on the prediction step,
	// inspect, then continue.
	if err := runner.SetBreakpoint(2, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Stepping the recipe (breakpoint on line 3) ==")
	steps, err := runner.Continue()
	if err != nil {
		log.Fatalf("line %d failed: %v", runner.PC(), err)
	}
	for _, s := range steps {
		fmt.Printf("  ✓ %s\n", s.Line)
	}
	fmt.Printf("  ● paused before line %d: %s\n", runner.PC()+1, lines[runner.PC()])
	fmt.Printf("    (inspecting: current dataset has %d rows)\n",
		steps[len(steps)-1].Result.Table.NumRows())

	rest, err := runner.RunAll()
	if err != nil {
		log.Fatalf("line %d failed: %v", runner.PC(), err)
	}
	for _, s := range rest {
		fmt.Printf("  ✓ %s\n", s.Line)
		if s.Result != nil && s.Result.Message != "" && strings.Contains(s.Line, "Predict") {
			fmt.Printf("    model: %s\n", s.Result.Message)
		}
	}

	final := rest[len(rest)-1].Result
	if len(final.Charts) == 0 {
		log.Fatal("no chart produced")
	}
	chart := final.Charts[0]
	chart.Spec.Title = "Real Per Capita GDP over time: Actual vs Prediction (based on data before 2020)"
	fmt.Println("\n== Chart artifact (Figure 2b) ==")
	fmt.Print(viz.Render(chart))

	// Quantify the "economic activity gap": predicted minus actual at the
	// overlap boundary.
	fmt.Println("\n== Recipe saved with the artifact (§2.3) ==")
	rec, err := recipe.FromGraph("gdp_vs_forecast", runner.Graph())
	if err != nil {
		log.Fatal(err)
	}
	gelLines, err := rec.GEL(reg)
	if err != nil {
		log.Fatal(err)
	}
	for i, l := range gelLines {
		fmt.Printf("%2d. %s\n", i+1, l)
	}
}
