// Quickstart: load a CSV, wrangle it with skills, chart it, and print the
// auto-generated recipe in all three dialects (GEL, Python, SQL).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"datachat/internal/dag"
	"datachat/internal/gel"
	"datachat/internal/recipe"
	"datachat/internal/skills"
	"datachat/internal/viz"
)

const salesCSV = `order_id,region,status,price,discount
1,east,Successful,120.5,0.1
2,west,Successful,80.0,0.0
3,east,Unsuccessful,45.0,0.2
4,north,Successful,210.0,0.15
5,west,Refunded,99.0,0.0
6,east,Successful,60.0,0.05
7,south,Successful,150.0,0.1
8,north,Unsuccessful,30.0,0.0
9,south,Successful,75.5,0.25
10,east,Successful,88.0,0.0
`

func main() {
	reg := skills.NewRegistry()
	ctx := skills.NewContext()
	ctx.PutFile("sales.csv", salesCSV)
	executor := dag.NewExecutor(reg, ctx)
	parser := gel.NewParser(reg)

	// A working session is just GEL sentences executed in order.
	lines := []string{
		"Load data from the file sales.csv",
		"Keep the rows where status = 'Successful'",
		"Create a new column revenue as price * (1 - discount)",
		"Compute the sum of revenue for each region and call the computed columns TotalRevenue",
		"Sort the rows by TotalRevenue in descending order",
	}
	runner := gel.NewRunner(parser, executor, lines)
	steps, err := runner.RunAll()
	if err != nil {
		log.Fatalf("recipe failed: %v", err)
	}
	final := steps[len(steps)-1].Result
	fmt.Println("== Result ==")
	fmt.Print(final.Table)

	// Chart the result.
	chart, err := viz.Build(final.Table, viz.Spec{Type: viz.Bar, X: "region", Y: "TotalRevenue",
		Title: "Net revenue by region (successful orders)"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Chart ==")
	fmt.Print(viz.Render(chart))

	// Every analysis carries its recipe (§2.3) — in three dialects.
	rec, err := recipe.FromGraph("quickstart", runner.Graph())
	if err != nil {
		log.Fatal(err)
	}
	gelLines, err := rec.GEL(reg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Recipe (GEL) ==")
	for i, l := range gelLines {
		fmt.Printf("%2d. %s\n", i+1, l)
	}
	python, err := rec.Python(reg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Recipe (Python API) ==")
	fmt.Println(python)
	if sql, err := executor.CompileSQL(runner.Graph(), runner.Graph().Last()); err == nil {
		fmt.Println("\n== Recipe (consolidated SQL, §2.2) ==")
		fmt.Println(sql)
	}
	fmt.Printf("\nexecutor stats: %+v\n", executor.Stats())
}
