// Command dcskills prints the skill catalog — the expanded form of the
// paper's Table 1 — grouped by category, with each skill's GEL sentence
// forms, whether a sentence naming no dataset acts on the current one, its
// Python API method and parameters, and whether the DAG compiler can merge
// it into SQL.
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
			tags := ""
			if def.MergeSQL != nil {
				tags = "  [SQL-mergeable]"
			}
			if def.Standalone {
				tags += "  [standalone: needs no current dataset]"
			}
			fmt.Printf("  %-22s %s%s\n", def.Name, def.Summary, tags)
			for _, form := range def.GEL {
				implied := ""
				if len(form.Implies) > 0 {
					implied = fmt.Sprintf("  (implies %v)", form.Implies)
				}
				fmt.Printf("  %22s GEL:    %s%s\n", "", form.Template, implied)
			}
			if len(def.GEL) == 0 {
				fmt.Printf("  %22s GEL:    (an irregular sentence, parsed and rendered by hand)\n", "")
			}
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
