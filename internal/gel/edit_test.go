package gel

import (
	"testing"

	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/skills"
)

func editFixture(t *testing.T) *Runner {
	t.Helper()
	ctx := skills.NewContext()
	ctx.Datasets["d"] = dataset.MustNewTable("d",
		dataset.IntColumn("x", []int64{1, 2, 3, 4, 5, 6}, nil))
	executor := dag.NewExecutor(reg, ctx)
	return NewRunner(NewParser(reg), executor, []string{
		"Use the dataset d",
		"Keep the rows where x > 2",
		"Limit the data to 2 rows",
		"Count the rows",
	})
}

func TestEditLineRerunsFromEdit(t *testing.T) {
	r := editFixture(t)
	steps, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := steps[3].Result.Table.Column("rows")
	if c.Value(0).I != 2 {
		t.Fatalf("initial count = %v", c.Value(0))
	}
	// Edit the filter: everything after it re-executes.
	if err := r.EditLine(1, "Keep the rows where x > 4"); err != nil {
		t.Fatal(err)
	}
	if r.PC() != 1 {
		t.Errorf("pc after edit = %d, want 1", r.PC())
	}
	all := r.Steps()
	if all[1].State != StepPending || all[3].State != StepPending {
		t.Error("edited suffix not reset to pending")
	}
	if all[0].State != StepDone {
		t.Error("prefix should stay executed")
	}
	steps2, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	// x > 4 leaves {5, 6}; limit 2 keeps both; count = 2 — but the filter
	// now has different content, verify through the limit step rows.
	if steps2[0].Result.Table.NumRows() != 2 {
		t.Errorf("edited filter rows = %d", steps2[0].Result.Table.NumRows())
	}
	vals, _ := steps2[0].Result.Table.Column("x")
	if vals.Value(0).I != 5 {
		t.Errorf("edited filter first value = %v", vals.Value(0))
	}
}

func TestEditLineBeforePC(t *testing.T) {
	r := editFixture(t)
	// Execute only the first two lines.
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	// Edit line 0 (before the pc): the prefix replays from scratch.
	if err := r.EditLine(0, "Use the dataset d"); err != nil {
		t.Fatal(err)
	}
	if r.PC() != 0 {
		t.Errorf("pc = %d", r.PC())
	}
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestEditLineErrors(t *testing.T) {
	r := editFixture(t)
	if err := r.EditLine(99, "x"); err == nil {
		t.Error("out-of-range edit should fail")
	}
	// Editing a line to invalid GEL surfaces on the next run, not at edit.
	if err := r.EditLine(1, "gibberish sentence"); err != nil {
		t.Fatalf("edit itself should succeed: %v", err)
	}
	if _, err := r.RunAll(); err == nil {
		t.Error("running an invalid edited line should fail")
	}
}
