package sqlengine

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"datachat/internal/dataset"
)

// benchTables builds the benchmark catalog: a wide fact table of n rows and
// a dims table with one row per distinct join key, so the equi join fans
// out roughly 1:1.
func benchTables(n int) map[string]*dataset.Table {
	rng := rand.New(rand.NewSource(1))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	nkeys := n / 100
	if nkeys < 8 {
		nkeys = 8
	}
	ids := make([]int64, n)
	ks := make([]int64, n)
	vs := make([]float64, n)
	ss := make([]string, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		ks[i] = int64(rng.Intn(nkeys))
		vs[i] = float64(rng.Intn(1000)) / 10
		ss[i] = vocab[rng.Intn(len(vocab))]
		nulls[i] = rng.Intn(100) < 5
	}
	big := dataset.MustNewTable("big",
		dataset.IntColumn("id", ids, nil),
		dataset.IntColumn("k", ks, nil),
		dataset.FloatColumn("v", vs, nulls),
		dataset.StringColumn("s", ss, nil),
	)
	dk := make([]int64, nkeys)
	dw := make([]float64, nkeys)
	for i := range dk {
		dk[i] = int64(i)
		dw[i] = float64(i) / 7
	}
	dims := dataset.MustNewTable("dims",
		dataset.IntColumn("dk", dk, nil),
		dataset.FloatColumn("dw", dw, nil),
	)
	return map[string]*dataset.Table{"big": big, "dims": dims}
}

// factsTable builds the interactive workload's shape: n rows of an int id, a
// 13-value and a 1 000-value string, an int v uniform on [0, 1e6) and a time.
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

// coldChainFilter keeps ≈ 18 % of a factsTable.
const coldChainFilter = "SELECT * FROM facts WHERE v >= 820000"

// BenchmarkColdChain runs the four statements of one interactive chain with
// a never-seen constant, each over its predecessor's result the way the
// session's steps read one another: the filter over 200k facts rows, GROUP BY
// the 1 000 cats over what it keeps, the sort by sum, and the limit.
func BenchmarkColdChain(b *testing.B) {
	tables := map[string]*dataset.Table{"facts": factsTable(200_000)}
	steps := []struct{ name, out, query string }{
		{"filter", "kept", coldChainFilter},
		{"group", "grouped", "SELECT cat, SUM(v) AS sum_v, COUNT(*) AS count_records FROM kept GROUP BY cat ORDER BY cat"},
		{"sort", "sorted", "SELECT * FROM grouped ORDER BY sum_v DESC"},
		{"limit", "limited", "SELECT * FROM sorted LIMIT 10"},
	}
	for _, step := range steps {
		catalog := NewMapCatalog(tables)
		stmt, err := Parse(step.query)
		if err != nil {
			b.Fatal(err)
		}
		out, err := ExecStmt(catalog, stmt)
		if err != nil {
			b.Fatal(err)
		}
		tables[step.out] = out
		b.Run(step.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExecStmt(catalog, stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchBothPaths(b *testing.B, n int, query string) {
	catalog := NewMapCatalog(benchTables(n))
	stmt, err := Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"vectorized", Options{}},
		{"reference", Options{DisableVectorized: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExecStmtOptions(catalog, stmt, mode.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

func BenchmarkVectorizedFilter(b *testing.B) {
	benchBothPaths(b, 100_000,
		"SELECT id, v FROM big WHERE v > 25.0 AND v < 75.0 AND s != 'zeta' AND k % 3 = 1")
}

func BenchmarkVectorizedJoin(b *testing.B) {
	benchBothPaths(b, 100_000,
		"SELECT big.id, dims.dw FROM big JOIN dims ON big.k = dims.dk WHERE big.v > 50.0")
}

func BenchmarkVectorizedGroupBy(b *testing.B) {
	benchBothPaths(b, 100_000,
		"SELECT s, COUNT(*) AS c, SUM(v) AS sv, AVG(v) AS av, MIN(v) AS mn, MAX(v) AS mx FROM big GROUP BY s ORDER BY s")
}

func BenchmarkVectorizedLike(b *testing.B) {
	benchBothPaths(b, 100_000, "SELECT id FROM big WHERE s LIKE '%et%' OR s LIKE 'alp%'")
}

// BenchmarkVectorizedSizes tracks scaling across row counts for the filter
// shape; the experiment driver reports the full grid.
func BenchmarkVectorizedSizes(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchBothPaths(b, n, "SELECT id, v FROM big WHERE v > 25.0 AND s != 'zeta'")
		})
	}
}
