// Collisions: the Figure 1 scenario. A California-collisions-style dataset
// is explored in a spreadsheet-ish flow, then a single Visualize request
// ("Visualize at_fault by party_age, party_sex, cellphone_in_use") fans out
// into a set of charts, exactly as the paper's screenshot shows.
//
//	go run ./examples/collisions
package main

import (
	"fmt"
	"log"
	"math/rand"

	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/gel"
	"datachat/internal/skills"
	"datachat/internal/viz"
)

// buildParties synthesizes a parties table with the Figure 1 schema shape.
func buildParties(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	atFault := make([]string, n)
	ages := make([]int64, n)
	ageNulls := make([]bool, n)
	sexes := make([]string, n)
	phone := make([]string, n)
	sobriety := make([]string, n)
	sobrietyChoices := []string{
		"had not been drinking", "had been drinking, impaired",
		"impairment unknown", "not applicable",
	}
	for i := 0; i < n; i++ {
		// Older drivers and phone users are more often at fault, so the
		// charts have something to show.
		age := int64(16 + rng.Intn(70))
		usesPhone := rng.Float64() < 0.15
		fault := rng.Float64() < 0.3
		if usesPhone && rng.Float64() < 0.5 {
			fault = true
		}
		if age < 25 && rng.Float64() < 0.2 {
			fault = true
		}
		if fault {
			atFault[i] = "at fault"
		} else {
			atFault[i] = "not at fault"
		}
		ages[i] = age
		if rng.Float64() < 0.05 {
			ageNulls[i] = true
		}
		if rng.Intn(2) == 0 {
			sexes[i] = "male"
		} else {
			sexes[i] = "female"
		}
		if usesPhone {
			phone[i] = "in use"
		} else {
			phone[i] = "not in use"
		}
		sobriety[i] = sobrietyChoices[rng.Intn(len(sobrietyChoices))]
	}
	return dataset.MustNewTable("parties",
		dataset.StringColumn("at_fault", atFault, nil),
		dataset.IntColumn("party_age", ages, ageNulls),
		dataset.StringColumn("party_sex", sexes, nil),
		dataset.StringColumn("cellphone_in_use", phone, nil),
		dataset.StringColumn("party_sobriety", sobriety, nil),
	)
}

// buildCollisions synthesizes the collisions table parties join to
// (Figure 1 shows collisions, parties, and victims side by side).
func buildCollisions(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	caseIDs := make([]int64, n)
	severity := make([]string, n)
	weather := make([]string, n)
	for i := 0; i < n; i++ {
		caseIDs[i] = int64(i + 1)
		severity[i] = []string{"property damage", "injury", "severe"}[rng.Intn(3)]
		weather[i] = []string{"clear", "rain", "fog"}[rng.Intn(3)]
	}
	return dataset.MustNewTable("collisions",
		dataset.IntColumn("case_id", caseIDs, nil),
		dataset.StringColumn("severity", severity, nil),
		dataset.StringColumn("weather", weather, nil),
	)
}

func main() {
	reg := skills.NewRegistry()
	ctx := skills.NewContext()
	parties := buildParties(2000, 7)
	// Give each party a case_id referencing the collisions table.
	caseCol := dataset.NewColumn("case_id", dataset.TypeInt)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < parties.NumRows(); i++ {
		caseCol.Append(dataset.Int(int64(1 + rng.Intn(900))))
	}
	withCase, err := parties.WithColumn(caseCol)
	if err != nil {
		log.Fatal(err)
	}
	ctx.Datasets["parties"] = withCase
	ctx.Datasets["collisions"] = buildCollisions(900, 8)
	executor := dag.NewExecutor(reg, ctx)
	parser := gel.NewParser(reg)

	lines := []string{
		"Use the dataset parties",
		"Describe the dataset",
		// The Figure 3 example: compute counts per sobriety level.
		"Compute the count of records for each party_sobriety and call the computed columns NumberOfCases",
		"Use the dataset parties, version 1",
		// The Figure 1 chat request.
		"Visualize at_fault by party_age, party_sex, cellphone_in_use",
	}
	runner := gel.NewRunner(parser, executor, lines)
	steps, err := runner.RunAll()
	if err != nil {
		log.Fatalf("recipe failed at line %d: %v", runner.PC(), err)
	}

	fmt.Println("== Dataset summary ==")
	fmt.Print(steps[1].Result.Table)

	fmt.Println("\n== Cases per sobriety level (Figure 3's Compute) ==")
	fmt.Print(steps[2].Result.Table)

	visualize := steps[4].Result
	fmt.Println("\n== Chat ==")
	fmt.Println("> Visualize at_fault by party_age, party_sex, cellphone_in_use")
	fmt.Println(visualize.Message)
	for _, chart := range visualize.Charts {
		fmt.Println()
		fmt.Print(viz.Render(chart))
	}
	fmt.Printf("\n%d charts produced from one request (Figure 1 shows 6)\n", len(visualize.Charts))

	// The Figure 1 left panel shows parties joined against collisions; a
	// join plus a pivot answers "who is at fault, by collision severity?".
	joinLines := []string{
		"Join the datasets parties and collisions on parties.case_id = collisions.case_id",
		"Pivot severity against at_fault computing count of records",
	}
	joinRunner := gel.NewRunner(parser, dag.NewExecutor(reg, ctx), joinLines)
	joinSteps, err := joinRunner.RunAll()
	if err != nil {
		log.Fatalf("join recipe failed: %v", err)
	}
	fmt.Println("\n== At fault by collision severity (join + pivot) ==")
	fmt.Print(joinSteps[1].Result.Table)
}
