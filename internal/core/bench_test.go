package core

import (
	"fmt"
	"strings"
	"testing"

	"datachat/internal/skills"
)

// BenchmarkPlanStep plans step 40 of an analysis over a 10 MB registered
// file — the passes every step runs before it can be served from the cache.
// The file's hash is a lookup taken at registration, so the file's size is
// not in the number.
func BenchmarkPlanStep(b *testing.B) {
	var csv strings.Builder
	csv.WriteString(factsCSV(2000))
	for csv.Len() < 10<<20 {
		fmt.Fprintf(&csv, "%d,g%d,c%d,%d\n", csv.Len(), csv.Len()%13, csv.Len()%50, csv.Len()%1000)
	}
	p := New()
	p.RegisterFile("facts.csv", csv.String())
	if _, err := p.CreateSession("a", "ann"); err != nil {
		b.Fatal(err)
	}
	invs := make([]skills.Invocation, 0, 41)
	for node := 0; node <= 40; node++ {
		inv, err := p.ParseGEL(chainStep(node, 100+node/4), chainInput(node))
		if err != nil {
			b.Fatal(err)
		}
		invs = append(invs, inv)
	}
	if _, err := p.Run("a", "ann", invs...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Explain("a", ""); err != nil {
			b.Fatal(err)
		}
	}
}
