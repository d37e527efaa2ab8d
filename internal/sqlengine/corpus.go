package sqlengine

import (
	"fmt"
	"math/rand"
	"time"

	"datachat/internal/dataset"
)

// This file generates the randomized differential-test corpus: tables with
// ~15% nulls per column and queries spanning filters with three-valued null
// logic, arithmetic, LIKE, IN, BETWEEN, equi and non-equi joins, grouping
// with HAVING, value-set aggregates, DISTINCT over computed items, SELECT
// without FROM, and multi-key ORDER BY — and, in every operator position,
// expressions the kernel compiler refuses (scalar functions, CASE, an IF
// whose values mix types), which the row evaluator answers. It lives outside
// the test files so other packages' harnesses (the chaos suite in
// internal/faults, the faults experiment) can replay the same corpus through
// their own execution paths.

// CorpusTables builds a deterministic random catalog: a main table t1 and a
// smaller t2 whose join keys overlap t1's ranges.
func CorpusTables(rng *rand.Rand, n1, n2 int) map[string]*dataset.Table {
	vocab := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "Alpha", "BETA", ""}
	base := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)

	nulls := func(n int) []bool {
		b := make([]bool, n)
		for i := range b {
			b[i] = rng.Intn(100) < 15
		}
		return b
	}
	ints := func(n, lo, hi int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(lo + rng.Intn(hi-lo))
		}
		return v
	}
	floats := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			// Quarter steps over a small range: plenty of duplicates for
			// group/join hits, no NaN, no negative zero.
			v[i] = float64(rng.Intn(81)-40) / 4
		}
		return v
	}
	strs := func(n int) []string {
		v := make([]string, n)
		for i := range v {
			v[i] = vocab[rng.Intn(len(vocab))]
		}
		return v
	}
	bools := func(n int) []bool {
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Intn(2) == 0
		}
		return v
	}
	times := func(n int) []time.Time {
		v := make([]time.Time, n)
		for i := range v {
			// Whole days only: the reference renders midnight times
			// date-only, so sub-second keys would not round-trip.
			v[i] = base.AddDate(0, 0, rng.Intn(7))
		}
		return v
	}

	t1 := dataset.MustNewTable("t1",
		dataset.IntColumn("i", ints(n1, -10, 25), nulls(n1)),
		dataset.FloatColumn("f", floats(n1), nulls(n1)),
		dataset.StringColumn("s", strs(n1), nulls(n1)),
		dataset.BoolColumn("b", bools(n1), nulls(n1)),
		dataset.TimeColumn("ts", times(n1), nulls(n1)),
	)
	t2 := dataset.MustNewTable("t2",
		dataset.IntColumn("k", ints(n2, -10, 25), nulls(n2)),
		dataset.StringColumn("s2", strs(n2), nulls(n2)),
		dataset.FloatColumn("v", floats(n2), nulls(n2)),
	)
	return map[string]*dataset.Table{"t1": t1, "t2": t2}
}

// CorpusPredicate generates a random predicate over t1's columns. qual prefixes
// column references for join queries.
func CorpusPredicate(rng *rand.Rand, qual string, depth int) string {
	c := func(name string) string { return qual + name }
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	op := func() string { return ops[rng.Intn(len(ops))] }
	atoms := []func() string{
		func() string { return fmt.Sprintf("%s %s %d", c("i"), op(), rng.Intn(30)-12) },
		func() string { return fmt.Sprintf("%s %s %.2f", c("f"), op(), float64(rng.Intn(60)-30)/4) },
		func() string {
			return fmt.Sprintf("%s %s '%s'", c("s"), op(), []string{"alpha", "beta", "GAMMA", "zeta"}[rng.Intn(4)])
		},
		func() string {
			pats := []string{"a%", "%a", "%et%", "alpha", "_eta", "%a%a%", "a%a", "%", "g_mma", "%A", "Z%"}
			not := ""
			if rng.Intn(3) == 0 {
				not = "NOT "
			}
			return fmt.Sprintf("%s %sLIKE '%s'", c("s"), not, pats[rng.Intn(len(pats))])
		},
		func() string {
			not := ""
			if rng.Intn(2) == 0 {
				not = "NOT "
			}
			return fmt.Sprintf("%s %sIN (%d, %d, %d)", c("i"), not, rng.Intn(20)-8, rng.Intn(20)-8, rng.Intn(20)-8)
		},
		func() string { return fmt.Sprintf("%s IN ('alpha', 'beta', '')", c("s")) },
		func() string {
			lo := rng.Intn(20) - 12
			not := ""
			if rng.Intn(3) == 0 {
				not = "NOT "
			}
			return fmt.Sprintf("%s %sBETWEEN %d AND %d", c("i"), not, lo, lo+rng.Intn(10))
		},
		func() string { return fmt.Sprintf("%s BETWEEN -5.0 AND %.2f", c("f"), float64(rng.Intn(40))/4) },
		func() string { return c("b") },
		func() string { return "NOT " + c("b") },
		func() string { return fmt.Sprintf("%s = TRUE", c("b")) },
		func() string {
			col := []string{"i", "f", "s", "b", "ts"}[rng.Intn(5)]
			not := ""
			if rng.Intn(2) == 0 {
				not = "NOT "
			}
			return fmt.Sprintf("%s IS %sNULL", c(col), not)
		},
		func() string { return fmt.Sprintf("%s + 2 > %s", c("i"), c("f")) },
		func() string { return fmt.Sprintf("%s * 2 - 1 >= %d", c("i"), rng.Intn(30)) },
		func() string { return fmt.Sprintf("%s / 2.0 < %.2f", c("f"), float64(rng.Intn(20)-10)/2) },
		func() string { return fmt.Sprintf("%s %% 3 = %d", c("i"), rng.Intn(3)) },
		func() string { return fmt.Sprintf("-%s < %s", c("i"), c("f")) },
		// Atoms the kernel compiler refuses: scalar functions, CASE, and a
		// comparison whose left side mixes ints and strings row by row.
		func() string {
			return fmt.Sprintf("UPPER(%s) = '%s'", c("s"), []string{"ALPHA", "BETA", "alpha"}[rng.Intn(3)])
		},
		func() string { return fmt.Sprintf("FLOOR(%s) >= %d", c("f"), rng.Intn(16)-8) },
		func() string { return fmt.Sprintf("DAY(%s) > %d", c("ts"), rng.Intn(7)) },
		func() string { return fmt.Sprintf("CAST(%s AS string) LIKE '1%%'", c("i")) },
		func() string { return fmt.Sprintf("IF(%s, %s, %s) > %d", c("b"), c("i"), c("s"), rng.Intn(20)-5) },
		func() string {
			return fmt.Sprintf("CASE WHEN %s > %d THEN %s ELSE %s END < %d", c("i"), rng.Intn(20)-5, c("f"), c("i"), rng.Intn(20)-8)
		},
	}
	atom := func() string { return atoms[rng.Intn(len(atoms))]() }
	if depth <= 0 {
		return atom()
	}
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s AND %s)", CorpusPredicate(rng, qual, depth-1), CorpusPredicate(rng, qual, depth-1))
	case 1:
		return fmt.Sprintf("(%s OR %s)", CorpusPredicate(rng, qual, depth-1), CorpusPredicate(rng, qual, depth-1))
	case 2:
		return fmt.Sprintf("NOT (%s)", CorpusPredicate(rng, qual, depth-1))
	default:
		return atom()
	}
}

// CorpusQueries builds the query corpus for one rng stream: count random
// queries over the CorpusTables schema plus the fixed regression tail.
func CorpusQueries(rng *rand.Rand, count int) []string {
	orderKeys := []string{"i", "f DESC", "s", "ts DESC", "b", "i DESC, s", "f, ts"}
	var qs []string
	for len(qs) < count {
		p := func() string { return CorpusPredicate(rng, "", rng.Intn(3)) }
		jp := func() string { return CorpusPredicate(rng, "t1.", rng.Intn(2)) }
		ok := orderKeys[rng.Intn(len(orderKeys))]
		switch rng.Intn(14) {
		case 0:
			qs = append(qs, fmt.Sprintf("SELECT * FROM t1 WHERE %s", p()))
		case 1:
			qs = append(qs, fmt.Sprintf("SELECT i, f, s FROM t1 WHERE %s ORDER BY %s LIMIT %d", p(), ok, 5+rng.Intn(60)))
		case 2:
			qs = append(qs, fmt.Sprintf("SELECT i + 1 AS x, f * 2 AS y, s FROM t1 WHERE %s ORDER BY x DESC, s", p()))
		case 3:
			qs = append(qs, fmt.Sprintf(
				"SELECT s, COUNT(*) AS c, SUM(f) AS sf, AVG(i) AS ai, MIN(f) AS mn, MAX(i) AS mx FROM t1 WHERE %s GROUP BY s HAVING c >= %d ORDER BY c DESC, s",
				p(), 1+rng.Intn(3)))
		case 4:
			qs = append(qs, fmt.Sprintf(
				"SELECT i %% 4 AS bucket, COUNT(i) AS c, MIN(s) AS mn, MAX(ts) AS mx FROM t1 WHERE %s GROUP BY i %% 4 ORDER BY bucket", p()))
		case 5:
			qs = append(qs, "SELECT b, ts, COUNT(*) AS c, AVG(f) AS af FROM t1 GROUP BY b, ts ORDER BY c DESC, b, ts")
		case 6:
			qs = append(qs, fmt.Sprintf(
				"SELECT t1.i, t1.s, t2.v FROM t1 JOIN t2 ON t1.i = t2.k WHERE %s ORDER BY t1.i, t2.v LIMIT 80", jp()))
		case 7:
			qs = append(qs, fmt.Sprintf(
				"SELECT t1.i, t1.f, t2.v FROM t1 LEFT JOIN t2 ON t1.i = t2.k AND t1.f > t2.v WHERE %s ORDER BY t1.i, t1.f, t2.v LIMIT 80", jp()))
		case 8:
			qs = append(qs, fmt.Sprintf("SELECT COUNT(*) AS c, SUM(i) AS si, AVG(f) AS af, MIN(ts) AS mn FROM t1 WHERE %s", p()))
		// Select items, ORDER BY keys, GROUP BY keys, aggregate arguments and
		// a join residual the kernel compiler refuses; IF(i > 5, s, i) mixes
		// ints and strings within one column.
		case 9:
			qs = append(qs, fmt.Sprintf(
				"SELECT i, UPPER(s) AS u, FLOOR(f) AS fl, IF(i > 5, s, i) AS m FROM t1 WHERE %s ORDER BY m DESC, u, i LIMIT %d", p(), 5+rng.Intn(60)))
		case 10:
			qs = append(qs, fmt.Sprintf(
				"SELECT IF(i > 5, s, i) AS k, COUNT(*) AS c, SUM(FLOOR(f)) AS sf, MIN(UPPER(s)) AS mu, MAX(IF(b, i, s)) AS mx FROM t1 WHERE %s GROUP BY IF(i > 5, s, i) ORDER BY c DESC, k", p()))
		case 11:
			qs = append(qs, fmt.Sprintf(
				"SELECT DAY(ts) AS d, CASE WHEN b THEN i ELSE f END AS cv, CAST(i AS string) AS ci, s FROM t1 WHERE %s ORDER BY DAY(ts) DESC, CAST(i AS string), f", p()))
		case 12:
			qs = append(qs, fmt.Sprintf(
				"SELECT t1.i, t1.f, t2.v FROM t1 JOIN t2 ON t1.i = t2.k AND FLOOR(t1.f) >= t2.v WHERE %s ORDER BY t1.i, t1.f, t2.v LIMIT 80", jp()))
		default:
			qs = append(qs, fmt.Sprintf("SELECT DISTINCT s, b FROM t1 WHERE %s ORDER BY s, b", p()))
		}
	}
	// Fixed regression queries: string-keyed joins, alias ORDER BY against
	// source columns, fold-insensitive ORDER BY names, empty-input grouping,
	// and the un-ordered LIMIT shapes that may stop the scan early — the last
	// one fails (string minus int) on the few rows with i > 22, which lie
	// past its limit, so only an engine that scans too far sees the error.
	qs = append(qs,
		"SELECT t1.s, t2.s2 FROM t1 JOIN t2 ON t1.s = t2.s2 ORDER BY t1.s, t2.s2 LIMIT 60",
		"SELECT i AS I2, f FROM t1 ORDER BY i2 DESC, F LIMIT 30",
		"SELECT b AS s, i FROM t1 ORDER BY s, i LIMIT 40", // the key is the output s, not the source column it shadows
		"SELECT COUNT(*) AS c, SUM(f) AS sf FROM t1 WHERE i > 99999",
		"SELECT COUNT(*) AS c, b, i + 1 AS x FROM t1 WHERE i > 99999", // bare columns of an aggregate over no rows are null
		"SELECT s, COUNT(*) AS c FROM t1 WHERE f IS NULL AND f IS NOT NULL GROUP BY s",
		"SELECT i / 0 AS z, i % 0 AS m FROM t1 ORDER BY i LIMIT 10",
		"SELECT f FROM t1 WHERE f / 0 > 1",
		"SELECT b, MIN(b) AS mn, MAX(b) AS mx, SUM(b) AS sb FROM t1 GROUP BY b ORDER BY b",
		"SELECT i, s FROM t1 LIMIT 7 OFFSET 3",
		"SELECT i + 1 AS x, f FROM t1 WHERE i > 0 LIMIT 9 OFFSET 2",
		"SELECT DISTINCT s, b FROM t1 LIMIT 4",
		"SELECT DISTINCT s FROM t1 WHERE i >= 0 LIMIT 3 OFFSET 1",
		"SELECT i FROM t1 ORDER BY nosuch LIMIT 0", // LIMIT 0 must not hide the sort's errors
		"SELECT i, s FROM t1 WHERE IF(i > 22, s, i) - 1 > -100 LIMIT 3",
		// Value-set aggregates (DISTINCT, MEDIAN, STDDEV): under plain and
		// mixed-type keys, with row-evaluated arguments, over an equi and a
		// non-equi join, inside a FROM-subquery, and over no rows.
		"SELECT s, COUNT(DISTINCT i) AS ci, SUM(DISTINCT i) AS si, AVG(DISTINCT f) AS af, MIN(DISTINCT f) AS mn, MAX(DISTINCT s) AS mx, MEDIAN(f) AS md, STDDEV(f) AS sd FROM t1 WHERE i > -8 GROUP BY s ORDER BY s",
		"SELECT IF(i > 5, s, i) AS k, COUNT(DISTINCT f) AS cf, MEDIAN(i) AS md, STDDEV(f) AS sd FROM t1 WHERE b OR f > 0 GROUP BY IF(i > 5, s, i) ORDER BY cf DESC, k",
		"SELECT b, MEDIAN(FLOOR(f)) AS mf, COUNT(DISTINCT IF(b, i, s)) AS cm, SUM(DISTINCT FLOOR(f)) AS sf FROM t1 GROUP BY b ORDER BY b",
		"SELECT t2.s2, COUNT(DISTINCT t1.i) AS c, MEDIAN(t2.v) AS m, STDDEV(t1.f) AS sd FROM t1 JOIN t2 ON t1.i = t2.k WHERE t1.f > -5 GROUP BY t2.s2 ORDER BY t2.s2",
		"SELECT t1.b, COUNT(DISTINCT t2.k) AS c, MEDIAN(t2.v) AS m, STDDEV(t2.v) AS sd FROM t1 LEFT JOIN t2 ON t1.f > t2.v + 8 WHERE t1.i > 15 GROUP BY t1.b ORDER BY t1.b",
		"SELECT q.k, q.c + 1 AS c1, q.md FROM (SELECT IF(i > 5, s, i) AS k, COUNT(DISTINCT s) AS c, MEDIAN(f) AS md FROM t1 WHERE f IS NOT NULL GROUP BY IF(i > 5, s, i)) q WHERE q.c > 1 ORDER BY q.k",
		"SELECT COUNT(DISTINCT s) AS cs, MEDIAN(f) AS md, STDDEV(i) AS sd FROM t1 WHERE i > 0",
		"SELECT COUNT(DISTINCT s) AS cs, MEDIAN(f) AS md, STDDEV(f) AS sd FROM t1 WHERE i > 99999",
		// DISTINCT over computed items — a kernel, a row-evaluated function,
		// and an IF whose values mix ints and strings — with and without
		// ORDER BY and LIMIT.
		"SELECT DISTINCT i % 4 AS r, UPPER(s) AS u FROM t1 WHERE f > -8 ORDER BY r, u",
		"SELECT DISTINCT IF(i > 5, s, i) AS m FROM t1",
		"SELECT DISTINCT i + 1 AS x, b FROM t1 WHERE i > 0 LIMIT 6",
		"SELECT DISTINCT FLOOR(f) AS fl FROM t1 ORDER BY fl DESC LIMIT 5 OFFSET 1",
		// A join without equi-keys, whose morsels pair with every right row
		// in blocks, and DISTINCT over a grouped relation.
		"SELECT t1.i, t2.k FROM t1 CROSS JOIN t2 WHERE t1.i > 20 ORDER BY t1.i, t2.k LIMIT 50",
		"SELECT DISTINCT b, COUNT(*) > 20 AS many FROM t1 GROUP BY b, s",
		// SELECT without FROM: items once, aggregates over no rows.
		"SELECT 1 + 2 AS three, UPPER('x') AS u, NULL AS n",
		"SELECT COUNT(*) AS c, SUM(1) AS s, MEDIAN(2) AS m, COUNT(DISTINCT 3) AS d",
	)
	return qs
}
