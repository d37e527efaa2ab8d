package viz

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"datachat/internal/dataset"
)

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

var benchChart *Chart

// BenchmarkVisualize builds each chart family over a 200 000-row facts
// table, one sub-benchmark per chart.
func BenchmarkVisualize(b *testing.B) {
	t := factsTable(200_000)
	for _, spec := range []Spec{
		{Type: Donut, X: "grp"},
		{Type: Bar, X: "cat", Y: "v"},
		{Type: Histogram, X: "v"},
		{Type: Line, X: "ts", Y: "v", GroupBy: "grp"},
		{Type: Scatter, X: "id", Y: "v"},
		{Type: Violin, X: "v", GroupBy: "grp"},
		{Type: Bubble, X: "grp", Y: "cat", SizeBy: "v"},
	} {
		b.Run(spec.Type.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := Build(t, spec)
				if err != nil {
					b.Fatal(err)
				}
				benchChart = c
			}
		})
	}
}
