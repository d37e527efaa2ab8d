package experiments

import (
	"strings"
	"testing"

	"datachat/internal/spider"
)

// The suite is expensive to build; share it across tests.
var suite = NewSuite(1)

func TestFigure7Shape(t *testing.T) {
	r := suite.Figure7(42)
	if r.Total != 1040 {
		t.Fatalf("total = %d", r.Total)
	}
	// The paper's long tail: (low,low) dominates, (high,high) is rare.
	ll, lh := r.Counts[spider.LowLow], r.Counts[spider.LowHigh]
	hl, hh := r.Counts[spider.HighLow], r.Counts[spider.HighHigh]
	if ll < lh || ll < hl || ll < hh {
		t.Errorf("(low,low) should dominate: %v", r.Counts)
	}
	if hh > 80 {
		t.Errorf("(high,high) should be rare: %d", hh)
	}
	// Approximate Figure 7 counts (638/246/127/29) within a tolerance that
	// allows metric/intent disagreement on edge cases.
	within := func(got, want, tol int) bool { return got >= want-tol && got <= want+tol }
	if !within(ll, 638, 80) || !within(lh, 246, 80) || !within(hl, 127, 60) || !within(hh, 29, 30) {
		t.Errorf("counts diverge from Figure 7: %v", r.Counts)
	}
	if !strings.Contains(r.Report(), "Figure 7") {
		t.Error("report malformed")
	}
	// Points carry the raw metrics for plotting.
	if len(r.Points) != 1040 {
		t.Errorf("points = %d", len(r.Points))
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := suite.Table2(Table2Options{PerZone: 25, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	get := func(cells []AccuracyCell, z spider.Zone) float64 {
		for _, c := range cells {
			if c.Zone == z {
				return c.MeanEA
			}
		}
		return -1
	}
	// Shape assertions from the paper (§4.7), with tolerances sized to 25
	// samples per cell (the paper's own cell size — σ ≈ 0.09):
	// 1. On the easy set, (low, low) leads every other zone.
	sLL := get(r.Spider, spider.LowLow)
	for _, z := range []spider.Zone{spider.LowHigh, spider.HighLow, spider.HighHigh} {
		if got := get(r.Spider, z); got > sLL+0.05 {
			t.Errorf("spider %v (%.2f) above (low,low) (%.2f)", z, got, sLL)
		}
	}
	// 2. Higher complexity hurts at least as much as higher misalignment.
	if get(r.Spider, spider.LowHigh) > get(r.Spider, spider.HighLow)+0.1 {
		t.Errorf("complexity should hurt at least as much as misalignment: LH=%.2f HL=%.2f",
			get(r.Spider, spider.LowHigh), get(r.Spider, spider.HighLow))
	}
	// 3. Spider beats custom overall.
	if r.SpiderMean <= r.CustomMean {
		t.Errorf("spider mean %.2f should exceed custom mean %.2f", r.SpiderMean, r.CustomMean)
	}
	// 4. Custom (high, high) collapses: the worst custom cell, well below
	// every spider cell (the paper's headline 0.25).
	cHH := get(r.Custom, spider.HighHigh)
	if cHH > 0.5 {
		t.Errorf("custom (high,high) = %.2f; expected a collapse (paper: 0.25)", cHH)
	}
	for _, z := range []spider.Zone{spider.LowLow, spider.LowHigh, spider.HighLow} {
		if got := get(r.Custom, z); got < cHH-0.05 {
			t.Errorf("custom %v (%.2f) below custom (high,high) (%.2f)", z, got, cHH)
		}
	}
	// 5. Sane absolute ranges.
	if sLL < 0.6 || sLL > 1.0 {
		t.Errorf("spider (low,low) = %.2f out of plausible range", sLL)
	}
	if !strings.Contains(r.Report(), "Table 2") {
		t.Error("report malformed")
	}
}

func TestSamplingCosts(t *testing.T) {
	r, err := Sampling(200_000, []float64{0.1, 0.01}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	ten := r.Rows[1]
	if ten.RelativeCost < 0.05 || ten.RelativeCost > 0.15 {
		t.Errorf("10%% sample relative cost = %.3f, want ≈ 0.1 (the paper's 10× saving)", ten.RelativeCost)
	}
	one := r.Rows[2]
	if one.RelativeCost > 0.03 {
		t.Errorf("1%% sample relative cost = %.3f", one.RelativeCost)
	}
	if r.SnapshotIterationFee != 0 {
		t.Errorf("snapshot iterations billed %d bytes; should be free", r.SnapshotIterationFee)
	}
	if r.CloudIterationBytes <= r.SnapshotPullBytes {
		t.Errorf("iterating on cloud (%d) should out-cost one snapshot pull (%d)",
			r.CloudIterationBytes, r.SnapshotPullBytes)
	}
	if !strings.Contains(r.Report(), "block sampling") {
		t.Error("report malformed")
	}
}

func TestConsolidation(t *testing.T) {
	r, err := Consolidation(20_000, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Figure4Blocks != 1 {
		t.Errorf("Figure 4 consolidated blocks = %d, want 1", r.Figure4Blocks)
	}
	if r.Figure4NaiveBlocks < 2 {
		t.Errorf("naive blocks = %d", r.Figure4NaiveBlocks)
	}
	if !r.SameResult {
		t.Error("consolidated and naive chains disagree")
	}
	if r.ConsolidatedDuration <= 0 || r.NaiveDuration <= 0 {
		t.Error("durations not measured")
	}
	if !strings.Contains(r.Report(), "consolidation") {
		t.Error("report malformed")
	}
}

func TestSlicing(t *testing.T) {
	r, err := Slicing(12)
	if err != nil {
		t.Fatal(err)
	}
	if r.Before != 15 || r.Pruned != 12 {
		t.Errorf("before=%d pruned=%d", r.Before, r.Pruned)
	}
	if r.After != 2 || r.Merged != 1 {
		t.Errorf("after=%d merged=%d", r.After, r.Merged)
	}
	if !r.Linear || !r.SameResult {
		t.Errorf("linear=%v same=%v", r.Linear, r.SameResult)
	}
}

func TestAblations(t *testing.T) {
	sem, err := suite.AblateSemanticLayer(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	// §4.2: without the semantic layer, high-M accuracy drops.
	if sem.AblatedAccuracy > sem.DefaultAccuracy {
		t.Errorf("semantic ablation improved accuracy: %.2f -> %.2f",
			sem.DefaultAccuracy, sem.AblatedAccuracy)
	}
	if sem.DefaultAccuracy-sem.AblatedAccuracy < 0.05 {
		t.Errorf("semantic layer shows no effect: %.2f vs %.2f",
			sem.DefaultAccuracy, sem.AblatedAccuracy)
	}
	chk, err := suite.AblateChecker(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if chk.AblatedAccuracy > chk.DefaultAccuracy {
		t.Errorf("checker ablation improved accuracy: %.2f -> %.2f",
			chk.DefaultAccuracy, chk.AblatedAccuracy)
	}
	ret, err := suite.AblateRetrieval(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if ret.Samples == 0 {
		t.Error("retrieval ablation ran on no samples")
	}
	for _, r := range []*AblationResult{sem, chk, ret} {
		if !strings.Contains(r.Report(), "ablation") {
			t.Error("report malformed")
		}
	}
}

func TestAblatePromptBudget(t *testing.T) {
	r, err := suite.AblatePromptBudget(8, 42, 120)
	if err != nil {
		t.Fatal(err)
	}
	if r.AblatedAccuracy > r.DefaultAccuracy {
		t.Errorf("tiny budget improved accuracy: %.2f -> %.2f", r.DefaultAccuracy, r.AblatedAccuracy)
	}
	if r.DefaultAccuracy-r.AblatedAccuracy < 0.05 {
		t.Errorf("budget shows no effect: %.2f vs %.2f", r.DefaultAccuracy, r.AblatedAccuracy)
	}
}
