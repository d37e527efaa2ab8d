package skills

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"datachat/internal/dataset"
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

// BenchmarkRelationalApply runs each relational skill alone — its merge rule
// as a one-clause statement — and Pivot — its GROUP BY and reshape — over
// 50 000 rows, one sub-benchmark per skill.
func BenchmarkRelationalApply(b *testing.B) {
	ctx := benchTables(1, 50_000)
	for _, inv := range []Invocation{
		{Skill: "KeepRows", Args: Args{"condition": "f > 2.5 AND i >= 0"}},
		{Skill: "DropRows", Args: Args{"condition": "f > 2.5 AND i >= 0"}},
		{Skill: "KeepColumns", Args: Args{"columns": []string{"s", "i"}}},
		{Skill: "NewColumn", Args: Args{"name": "x", "formula": "i * 2 + f"}},
		{Skill: "SortRows", Args: Args{"columns": []string{"s", "f"}, "descending": true}},
		{Skill: "LimitRows", Args: Args{"count": 500}},
		{Skill: "DistinctRows", Args: Args{"columns": []string{"s", "b"}}},
		{Skill: "Compute", Args: Args{"aggregates": []string{"count of records", "avg of f", "max of i"}, "for_each": []string{"s"}}},
		{Skill: "Bin", Args: Args{"column": "f", "size": 2.5}},
		{Skill: "ExtractDatePart", Args: Args{"column": "ts", "part": "day"}},
		{Skill: "Pivot", Args: Args{"rows": "s", "columns": "b", "measure": "sum of i"}},
	} {
		inv.Inputs = []string{"t0"}
		b.Run(inv.Skill, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := reg.Execute(ctx, inv)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
		})
	}
}

// factsTable is the benchmark's facts file as a table: n rows of an int id,
// a 13-value and a 1 000-value string, an int v uniform on [0, 1e6) and a
// time one second apart per row.
func factsTable(n int) *dataset.Table {
	rng := rand.New(rand.NewSource(1))
	ids, vs := make([]int64, n), make([]int64, n)
	grps, cats := make([]string, n), make([]string, n)
	ts := make([]time.Time, n)
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range ids {
		ids[i] = int64(i)
		grps[i] = "g" + strconv.Itoa(rng.Intn(13))
		cats[i] = "c" + strconv.Itoa(rng.Intn(1000))
		vs[i] = rng.Int63n(1_000_000)
		ts[i] = base.Add(time.Duration(i) * time.Second)
	}
	return dataset.MustNewTable("facts",
		dataset.IntColumn("id", ids, nil),
		dataset.StringColumn("grp", grps, nil),
		dataset.StringColumn("cat", cats, nil),
		dataset.IntColumn("v", vs, nil),
		dataset.TimeColumn("ts", ts, nil),
	)
}

// BenchmarkDescribeDataset summarizes every column of a 200 000-row facts
// table, and TopValues counts its 1 000-value column.
func BenchmarkDescribeDataset(b *testing.B) {
	ctx := NewContext()
	ctx.Datasets["facts"] = factsTable(200_000)
	for _, inv := range []Invocation{
		{Skill: "DescribeDataset"},
		{Skill: "TopValues", Args: Args{"column": "cat"}},
	} {
		inv.Inputs = []string{"facts"}
		b.Run(inv.Skill, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := reg.Execute(ctx, inv)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
		})
	}
}
