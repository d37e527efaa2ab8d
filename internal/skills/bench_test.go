package skills

import (
	"fmt"
	"math/rand"
	"testing"

	"datachat/internal/sqlengine"
)

var benchResult *Result

func benchTables(n, rows int) *Context {
	ctx := NewContext()
	for i := 0; i < n; i++ {
		t := sqlengine.CorpusTables(rand.New(rand.NewSource(int64(i+1))), rows, 1)["t1"]
		ctx.Datasets[fmt.Sprintf("t%d", i)] = t
	}
	return ctx
}

// BenchmarkConcatenate is the Concatenate skill over four 25 000-row,
// five-column tables of one schema.
func BenchmarkConcatenate(b *testing.B) {
	ctx := benchTables(4, 25_000)
	inv := Invocation{Skill: "Concatenate", Inputs: []string{"t0", "t1", "t2", "t3"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := reg.Execute(ctx, inv)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}

// BenchmarkKeepRowsDirect is the KeepRows skill run directly (not
// consolidated into SQL) over 50 000 rows, keeping about a third.
func BenchmarkKeepRowsDirect(b *testing.B) {
	ctx := benchTables(1, 50_000)
	inv := Invocation{Skill: "KeepRows", Inputs: []string{"t0"}, Args: Args{"condition": "f > 2.5 AND i >= 0"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := reg.Execute(ctx, inv)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}
