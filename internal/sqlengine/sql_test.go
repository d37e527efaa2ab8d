package sqlengine

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"datachat/internal/dataset"
)

func testCatalog() MapCatalog { return NewMapCatalog(testTables()) }

func testTables() map[string]*dataset.Table {
	people := dataset.MustNewTable("people",
		dataset.IntColumn("id", []int64{1, 2, 3, 4, 5}, nil),
		dataset.StringColumn("name", []string{"ann", "bob", "carl", "dee", "eve"}, nil),
		dataset.IntColumn("age", []int64{30, 25, 40, 25, 35}, nil),
		dataset.StringColumn("dept", []string{"eng", "eng", "sales", "sales", "hr"}, nil),
		dataset.FloatColumn("salary", []float64{100, 80, 90, 85, 0}, []bool{false, false, false, false, true}),
	)
	orders := dataset.MustNewTable("orders",
		dataset.IntColumn("order_id", []int64{10, 11, 12, 13}, nil),
		dataset.IntColumn("person_id", []int64{1, 1, 3, 9}, nil),
		dataset.FloatColumn("amount", []float64{5.5, 2.5, 10, 1}, nil),
	)
	return map[string]*dataset.Table{"people": people, "orders": orders}
}

func mustExec(t *testing.T, query string) *dataset.Table {
	t.Helper()
	out, err := Exec(testCatalog(), query)
	if err != nil {
		t.Fatalf("Exec(%q): %v", query, err)
	}
	return out
}

func colStrings(t *testing.T, tbl *dataset.Table, name string) []string {
	t.Helper()
	c, err := tbl.Column(name)
	if err != nil {
		t.Fatalf("column %q: %v", name, err)
	}
	out := make([]string, c.Len())
	for i := range out {
		out[i] = c.Value(i).String()
	}
	return out
}

func TestSelectStar(t *testing.T) {
	out := mustExec(t, "SELECT * FROM people")
	if out.NumRows() != 5 || out.NumCols() != 5 {
		t.Fatalf("shape = %d×%d", out.NumRows(), out.NumCols())
	}
}

func TestSelectProjectionAndAlias(t *testing.T) {
	out := mustExec(t, "SELECT name, age * 2 AS double_age FROM people WHERE id = 1")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if got := colStrings(t, out, "double_age"); got[0] != "60" {
		t.Errorf("double_age = %v", got)
	}
}

func TestWhereOperators(t *testing.T) {
	cases := []struct {
		where string
		want  int
	}{
		{"age > 25", 3},
		{"age >= 25", 5},
		{"age = 25 AND dept = 'sales'", 1},
		{"age = 25 OR dept = 'hr'", 3},
		{"name LIKE 'a%'", 1},
		{"name NOT LIKE 'a%'", 4},
		{"age BETWEEN 26 AND 36", 2},
		{"age NOT BETWEEN 26 AND 36", 3},
		{"dept IN ('eng', 'hr')", 3},
		{"dept NOT IN ('eng', 'hr')", 2},
		{"salary IS NULL", 1},
		{"salary IS NOT NULL", 4},
		{"NOT (age > 25)", 2},
	}
	for _, c := range cases {
		out := mustExec(t, "SELECT id FROM people WHERE "+c.where)
		if out.NumRows() != c.want {
			t.Errorf("WHERE %s: rows = %d, want %d", c.where, out.NumRows(), c.want)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	out := mustExec(t, `SELECT dept, COUNT(*) AS n, AVG(age) AS avg_age, SUM(salary) AS pay
		FROM people GROUP BY dept ORDER BY dept`)
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	depts := colStrings(t, out, "dept")
	ns := colStrings(t, out, "n")
	if depts[0] != "eng" || ns[0] != "2" {
		t.Errorf("group 0 = %s/%s", depts[0], ns[0])
	}
	avg := colStrings(t, out, "avg_age")
	if avg[0] != "27.5" {
		t.Errorf("eng avg_age = %s", avg[0])
	}
	// hr has one row with null salary -> SUM null.
	pay := colStrings(t, out, "pay")
	if pay[1] != "null" {
		t.Errorf("hr pay = %s, want null", pay[1])
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	out := mustExec(t, "SELECT COUNT(*) AS n, MIN(age) AS lo, MAX(age) AS hi, MEDIAN(age) AS med FROM people")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if got := colStrings(t, out, "n")[0]; got != "5" {
		t.Errorf("n = %s", got)
	}
	if got := colStrings(t, out, "lo")[0]; got != "25" {
		t.Errorf("lo = %s", got)
	}
	if got := colStrings(t, out, "hi")[0]; got != "40" {
		t.Errorf("hi = %s", got)
	}
	if got := colStrings(t, out, "med")[0]; got != "30" {
		t.Errorf("med = %s", got)
	}
}

func TestCountDistinctAndNullSkipping(t *testing.T) {
	out := mustExec(t, "SELECT COUNT(DISTINCT dept) AS d, COUNT(salary) AS s FROM people")
	if got := colStrings(t, out, "d")[0]; got != "3" {
		t.Errorf("distinct depts = %s", got)
	}
	// COUNT(salary) skips the null.
	if got := colStrings(t, out, "s")[0]; got != "4" {
		t.Errorf("count salary = %s", got)
	}
}

func TestHaving(t *testing.T) {
	out := mustExec(t, "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept")
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if got := colStrings(t, out, "dept"); got[0] != "eng" || got[1] != "sales" {
		t.Errorf("depts = %v", got)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	out := mustExec(t, "SELECT name FROM people ORDER BY age DESC, name ASC LIMIT 2 OFFSET 1")
	got := colStrings(t, out, "name")
	// ages desc: carl(40), eve(35), ann(30), bob(25), dee(25); offset 1 limit 2 -> eve, ann
	if len(got) != 2 || got[0] != "eve" || got[1] != "ann" {
		t.Errorf("order/limit/offset = %v", got)
	}
}

func TestOrderByAlias(t *testing.T) {
	out := mustExec(t, "SELECT name, age * -1 AS neg FROM people ORDER BY neg")
	got := colStrings(t, out, "name")
	if got[0] != "carl" {
		t.Errorf("order by alias: first = %s", got[0])
	}
}

func TestDistinct(t *testing.T) {
	out := mustExec(t, "SELECT DISTINCT dept FROM people")
	if out.NumRows() != 3 {
		t.Errorf("distinct rows = %d", out.NumRows())
	}
}

func TestInnerJoin(t *testing.T) {
	out := mustExec(t, `SELECT p.name, o.amount FROM people p JOIN orders o ON p.id = o.person_id ORDER BY o.amount`)
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	names := colStrings(t, out, "name")
	if names[0] != "ann" || names[2] != "carl" {
		t.Errorf("join names = %v", names)
	}
}

func TestLeftJoin(t *testing.T) {
	out := mustExec(t, `SELECT p.name, o.order_id FROM people p LEFT JOIN orders o ON p.id = o.person_id ORDER BY p.id`)
	// ann has 2 orders, carl 1, others null => 2+1+3 = 6 rows
	if out.NumRows() != 6 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	ids := colStrings(t, out, "order_id")
	nullCount := 0
	for _, s := range ids {
		if s == "null" {
			nullCount++
		}
	}
	if nullCount != 3 {
		t.Errorf("null order_ids = %d, want 3", nullCount)
	}
}

func TestCrossJoin(t *testing.T) {
	out := mustExec(t, "SELECT p.id, o.order_id FROM people p CROSS JOIN orders o")
	if out.NumRows() != 20 {
		t.Errorf("cross join rows = %d, want 20", out.NumRows())
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	out := mustExec(t, `SELECT p.name FROM people p JOIN orders o ON p.id = o.person_id AND o.amount > 3`)
	if out.NumRows() != 2 { // ann's 5.5 and carl's 10
		t.Errorf("rows = %d, want 2", out.NumRows())
	}
}

func TestSubqueryInFrom(t *testing.T) {
	out := mustExec(t, `SELECT name FROM (SELECT name, age FROM people WHERE age > 25) t WHERE age < 40`)
	got := colStrings(t, out, "name")
	if len(got) != 2 { // ann(30), eve(35)
		t.Fatalf("rows = %v", got)
	}
}

func TestDeeplyNestedProjection(t *testing.T) {
	q := "SELECT id FROM (SELECT id, name FROM (SELECT id, name, age FROM people) a) b"
	out := mustExec(t, q)
	if out.NumRows() != 5 {
		t.Errorf("rows = %d", out.NumRows())
	}
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountSelectBlocks(stmt); got != 3 {
		t.Errorf("CountSelectBlocks = %d, want 3", got)
	}
}

func TestCaseExpression(t *testing.T) {
	out := mustExec(t, `SELECT name, CASE WHEN age >= 35 THEN 'senior' ELSE 'junior' END AS level FROM people ORDER BY id`)
	levels := colStrings(t, out, "level")
	want := []string{"junior", "junior", "senior", "junior", "senior"}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestScalarFunctionsInQuery(t *testing.T) {
	out := mustExec(t, "SELECT UPPER(name) AS u, LENGTH(name) AS l FROM people WHERE id = 1")
	if got := colStrings(t, out, "u")[0]; got != "ANN" {
		t.Errorf("u = %s", got)
	}
	if got := colStrings(t, out, "l")[0]; got != "3" {
		t.Errorf("l = %s", got)
	}
}

func TestCastSyntax(t *testing.T) {
	out := mustExec(t, "SELECT CAST(age AS float) AS f FROM people WHERE id = 1")
	if got := colStrings(t, out, "f")[0]; got != "30" {
		t.Errorf("cast = %s", got)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	out := mustExec(t, "SELECT 1 + 2 AS three, 'x' AS s")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if got := colStrings(t, out, "three")[0]; got != "3" {
		t.Errorf("three = %s", got)
	}
}

func TestStddev(t *testing.T) {
	out := mustExec(t, "SELECT STDDEV(age) AS sd FROM people WHERE dept = 'eng'")
	// ages 30, 25 -> mean 27.5, population stddev 2.5
	if got := colStrings(t, out, "sd")[0]; got != "2.5" {
		t.Errorf("stddev = %s", got)
	}
}

func TestDuplicateOutputNamesDisambiguated(t *testing.T) {
	out := mustExec(t, "SELECT age, age FROM people LIMIT 1")
	names := out.ColumnNames()
	if names[0] == names[1] {
		t.Errorf("duplicate output names not disambiguated: %v", names)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM people",
		"SELECT FROM people",
		"SELECT * FROM people WHERE",
		"SELECT * FROM people GROUP age",
		"SELECT * FROM (SELECT * FROM people",
		"SELECT * FROM people LIMIT x",
		"SELECT NOPEFUNC(age) FROM people",
		"SELECT DAY()", // a fixed arity is checked here, not at evaluation
		"SELECT UPPER(name, age) FROM people",
		"SELECT SUM(*) FROM people",
		"SELECT * FROM people trailing nonsense tokens ~",
		"SELECT 'unterminated FROM people",
		"SELECT 1 FROM people AS", // used to read past the last token
		"SELECT 1 FROM (SELECT 1) AS",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestExecErrors(t *testing.T) {
	if _, err := Exec(testCatalog(), "SELECT * FROM missing"); err == nil {
		t.Error("missing table should error")
	}
	if _, err := Exec(testCatalog(), "SELECT nope FROM people"); err == nil {
		t.Error("missing column should error")
	}
	if _, err := Exec(testCatalog(), "SELECT p.id FROM people p JOIN orders o ON p.id = o.person_id WHERE zzz = 1"); err == nil {
		t.Error("unknown column in join query should error")
	}
	if _, err := Exec(testCatalog(), "SELECT SUM(name) FROM people"); err == nil {
		t.Error("SUM over strings should error")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	tables := testTables()
	tables["dup"] = dataset.MustNewTable("dup",
		dataset.IntColumn("id", []int64{1}, nil),
		dataset.StringColumn("name", []string{"x"}, nil),
	)
	catalog := NewMapCatalog(tables)
	if _, err := Exec(catalog, "SELECT id FROM people p JOIN dup d ON p.id = d.id"); err == nil {
		t.Error("bare ambiguous column should error")
	}
	out, err := Exec(catalog, "SELECT p.id FROM people p JOIN dup d ON p.id = d.id")
	if err != nil {
		t.Fatalf("qualified lookup should work: %v", err)
	}
	if out.NumRows() != 1 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestStarWithJoinQualifiesDuplicates(t *testing.T) {
	out := mustExec(t, "SELECT * FROM people p JOIN orders o ON p.id = o.person_id")
	if out.NumCols() != 8 {
		t.Errorf("cols = %d, want 8", out.NumCols())
	}
}

func TestRoundTripStringParse(t *testing.T) {
	queries := []string{
		"SELECT * FROM people",
		"SELECT name, age * 2 AS d FROM people WHERE (age > 25) AND (dept = 'eng')",
		"SELECT dept, COUNT(*) AS n FROM people GROUP BY dept HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3",
		"SELECT p.name FROM people AS p LEFT JOIN orders AS o ON (p.id = o.person_id)",
		"SELECT name FROM (SELECT name FROM people WHERE age > 30) AS t",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		again, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", q, stmt.String(), err)
		}
		r1, err := ExecStmt(testCatalog(), stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		r2, err := ExecStmt(testCatalog(), again)
		if err != nil {
			t.Fatalf("exec reparsed %q: %v", stmt.String(), err)
		}
		if !r1.Equal(r2) {
			t.Errorf("round trip changed results for %q", q)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: filters with random thresholds round-trip through SQL text
	// and return consistent row counts with a direct count query.
	f := func(threshold int8) bool {
		q := fmt.Sprintf("SELECT id FROM people WHERE age > %d", threshold)
		rows, err := Exec(testCatalog(), q)
		if err != nil {
			return false
		}
		count, err := Exec(testCatalog(), fmt.Sprintf("SELECT COUNT(*) AS n FROM people WHERE age > %d", threshold))
		if err != nil {
			return false
		}
		nCol, err := count.Column("n")
		if err != nil {
			return false
		}
		return nCol.Value(0).I == int64(rows.NumRows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNestedVsFlattenedSameResult(t *testing.T) {
	// The §2.2 optimization claim: a flattened query returns the same rows
	// as the nested projection chain it replaces.
	nested := "SELECT name FROM (SELECT name, age FROM (SELECT name, age, dept FROM people) a) b"
	flat := "SELECT name FROM people"
	r1 := mustExec(t, nested)
	r2 := mustExec(t, flat)
	if !r1.Equal(r2) {
		t.Error("nested and flattened queries disagree")
	}
}

func TestLexerEdgeCases(t *testing.T) {
	toks, err := lex("SELECT a -- comment\n, 1.5e-3, 'it''s' FROM \"weird name\"")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	joined := strings.Join(texts, "|")
	if !strings.Contains(joined, "1.5e-3") {
		t.Errorf("scientific number not lexed: %s", joined)
	}
	if !strings.Contains(joined, "it's") {
		t.Errorf("escaped quote not lexed: %s", joined)
	}
	if !strings.Contains(joined, "weird name") {
		t.Errorf("quoted ident not lexed: %s", joined)
	}
}
