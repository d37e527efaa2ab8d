// Command dcskills prints the skill catalog — the expanded form of the
// paper's Table 1 — grouped by category, with each skill's GEL sentence,
// Python API method, parameters, and whether the DAG compiler can merge it
// into SQL.
package main

import (
	"flag"
	"fmt"
	"strings"

	"datachat/internal/skills"
)

func main() {
	verbose := flag.Bool("v", false, "show parameters for each skill")
	flag.Parse()

	reg := skills.NewRegistry()
	byCat := reg.ByCategory()
	total := 0
	for _, cat := range skills.Categories() {
		defs := byCat[cat]
		if len(defs) == 0 {
			continue
		}
		fmt.Printf("%s (%d skills)\n%s\n", cat, len(defs), strings.Repeat("=", len(string(cat))+12))
		for _, def := range defs {
			relational := ""
			if def.MergeSQL != nil {
				relational = "  [SQL-mergeable]"
			}
			fmt.Printf("  %-22s %s%s\n", def.Name, def.Summary, relational)
			fmt.Printf("  %22s GEL:    %s\n", "", def.GEL)
			fmt.Printf("  %22s Python: .%s(...)\n", "", def.PyName)
			if *verbose {
				for _, p := range def.Params {
					req := "optional"
					if p.Required {
						req = "required"
					}
					fmt.Printf("  %22s   - %s (%s, %s): %s\n", "", p.Name, p.Type, req, p.Doc)
				}
			}
			total++
		}
		fmt.Println()
	}
	fmt.Printf("Table 1 — %d skills across %d categories\n", total, len(byCat))
}
