package gel

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusGELSeeds pulls every GEL sentence out of the conformance corpus so
// the fuzzer starts from the full grammar surface the product actually
// exercises, not a hand-picked subset.
func corpusGELSeeds(f *testing.F) []string {
	f.Helper()
	dir := filepath.Join("..", "..", "testdata", "conformance")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading corpus dir: %v", err)
	}
	var seeds []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".case") {
			continue
		}
		fh, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		inGEL := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "gel:":
				inGEL = true
			case inGEL && strings.HasPrefix(line, "  "):
				seeds = append(seeds, strings.TrimPrefix(line, "  "))
			case !strings.HasPrefix(line, "  "):
				inGEL = false
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			f.Fatal(err)
		}
	}
	if len(seeds) == 0 {
		f.Fatal("no GEL sentences found in the conformance corpus")
	}
	return seeds
}

// FuzzGELParse throws arbitrary console input at the GEL front end. The
// parser, the autocomplete suggester, and the condition translator all face
// raw user keystrokes, so none of them may panic — an invocation or an
// error are the only acceptable outcomes — and a sentence that parses must
// render and parse back to the same invocation (RoundTrip).
func FuzzGELParse(f *testing.F) {
	for _, s := range corpusGELSeeds(f) {
		f.Add(s)
	}
	for _, s := range []string{
		"",
		"Keep the rows where",
		"Compute the of for each and call the computed columns",
		"Load data from the file 'unterminated",
		"Join the datasets a and b on = ",
		"Visualize price by ,,,",
		"Keep the rows where x = 'a ' ' b'",
		"Sort the rows by \x00\xff",
		"Use the dataset ünïcode",
		"Compute the sum of ( for each )",
		"Predict the next -3 values of {measure}",
	} {
		f.Add(s)
	}
	p := NewParser(reg)
	f.Fuzz(func(t *testing.T, line string) {
		_ = p.TranslateCondition(line)
		_ = p.Suggest(line, []string{"price", "region"})
		inv, err := p.Parse(line)
		if err != nil {
			return
		}
		if _, err := p.RoundTrip(inv); err != nil {
			t.Errorf("Parse(%q) does not round trip: %v", line, err)
		}
	})
}
