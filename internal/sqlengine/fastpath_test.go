package sqlengine

import (
	"fmt"
	"testing"
	"testing/quick"

	"datachat/internal/dataset"
)

// forceGeneral rewrites "SELECT a, b …" into an equivalent query whose
// select list contains a computed expression, disabling the columnar fast
// path so both executor paths can be compared.
func TestColumnarFastPathMatchesGeneralPath(t *testing.T) {
	catalog := testCatalog()
	pairs := [][2]string{
		{
			"SELECT name, age FROM people WHERE age > 25 ORDER BY age DESC, name",
			"SELECT name, age + 0 AS age FROM people WHERE age > 25 ORDER BY age DESC, name",
		},
		{
			"SELECT * FROM people WHERE dept = 'eng'",
			"SELECT id, name, age + 0 AS age, dept, salary FROM people WHERE dept = 'eng'",
		},
		{
			"SELECT p.name FROM people p JOIN orders o ON p.id = o.person_id ORDER BY p.name",
			"SELECT CONCAT(p.name) AS name FROM people p JOIN orders o ON p.id = o.person_id ORDER BY p.name",
		},
	}
	for _, pair := range pairs {
		fast, err := Exec(catalog, pair[0])
		if err != nil {
			t.Fatalf("fast %q: %v", pair[0], err)
		}
		general, err := Exec(catalog, pair[1])
		if err != nil {
			t.Fatalf("general %q: %v", pair[1], err)
		}
		if fast.NumRows() != general.NumRows() {
			t.Fatalf("row counts differ for %q: %d vs %d", pair[0], fast.NumRows(), general.NumRows())
		}
		for r := 0; r < fast.NumRows(); r++ {
			for c := 0; c < fast.NumCols(); c++ {
				a := fast.Row(r)[c]
				b := general.Row(r)[c]
				if af, ok := a.AsFloat(); ok {
					bf, _ := b.AsFloat()
					if af != bf {
						t.Fatalf("%q cell (%d,%d): %v vs %v", pair[0], r, c, a, b)
					}
					continue
				}
				if a.String() != b.String() {
					t.Fatalf("%q cell (%d,%d): %v vs %v", pair[0], r, c, a, b)
				}
			}
		}
	}
}

func TestLimitPushdownEquivalence(t *testing.T) {
	// Property: for any limit and threshold, the limit-pushed-down plan
	// (WHERE + LIMIT, no ORDER BY) returns exactly the first k matching
	// rows in base order.
	n := 500
	ids := make([]int64, n)
	vals := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = int64((i * 37) % 100)
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{"t": dataset.MustNewTable("t",
		dataset.IntColumn("id", ids, nil),
		dataset.IntColumn("v", vals, nil),
	)})
	f := func(rawLimit, rawThresh uint8) bool {
		limit := int(rawLimit % 30)
		thresh := int(rawThresh % 100)
		limited, err := Exec(catalog, fmt.Sprintf("SELECT id FROM t WHERE v > %d LIMIT %d", thresh, limit))
		if err != nil {
			return false
		}
		full, err := Exec(catalog, fmt.Sprintf("SELECT id FROM t WHERE v > %d", thresh))
		if err != nil {
			return false
		}
		want := full.Head(limit)
		return limited.Equal(want.WithName(limited.Name()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLimitPushdownWithOffset(t *testing.T) {
	out := mustExec(t, "SELECT id FROM people WHERE age >= 25 LIMIT 2 OFFSET 1")
	full := mustExec(t, "SELECT id FROM people WHERE age >= 25")
	want := full.Window(1, 3)
	if !out.Equal(want.WithName(out.Name())) {
		t.Errorf("offset+limit = %s, want %s", out, want)
	}
	// Plain LIMIT without WHERE also truncates the scan.
	out = mustExec(t, "SELECT id FROM people LIMIT 2")
	if out.NumRows() != 2 {
		t.Errorf("rows = %d", out.NumRows())
	}
}

func TestFastPathDoesNotApplyToAliasOrder(t *testing.T) {
	// ORDER BY an output alias of a computed column goes through the
	// general path and still works.
	out := mustExec(t, "SELECT name, age * -1 AS neg FROM people ORDER BY neg LIMIT 1")
	c, _ := out.Column("name")
	if c.Value(0).S != "carl" {
		t.Errorf("first = %v", c.Value(0))
	}
}

func TestFastPathQualifiedStarAfterJoin(t *testing.T) {
	out := mustExec(t, "SELECT people.name, orders.amount FROM people JOIN orders ON people.id = orders.person_id ORDER BY orders.amount DESC")
	c, _ := out.Column("amount")
	if c.Value(0).F != 10 {
		t.Errorf("first amount = %v", c.Value(0))
	}
}

// TestParseNeverPanics assembles quasi-random SQL-ish text from vocabulary
// and junk: Parse must return a statement or an error, never panic.
func TestParseNeverPanics(t *testing.T) {
	vocab := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
		"JOIN", "LEFT", "ON", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE",
		"COUNT", "SUM", "(", ")", "*", ",", "=", "<", ">", "'str", "\"q",
		"people", "age", "1", "2.5", "-", "||", ".", "CASE", "WHEN", "END",
	}
	f := func(picks []uint8) bool {
		var src string
		for i, pick := range picks {
			if i > 20 {
				break
			}
			src += vocab[int(pick)%len(vocab)] + " "
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse(%q) panicked: %v", src, r)
			}
		}()
		if stmt, err := Parse(src); err == nil {
			// Parsed statements must also render and re-parse.
			if _, err := Parse(stmt.String()); err != nil {
				t.Errorf("reparse of %q failed: %v", stmt.String(), err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
