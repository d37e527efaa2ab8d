package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/sqlengine"
)

// Ingest, scan and fingerprint run on typed storage. These tests hold them to
// what the cell-at-a-time code they replaced produced: the fingerprints it
// wrote (golden, recorded before the change), the rows it scanned and sampled.

// everyType is a table with a column of every type, nulls in each, a string
// null slot that is not "", and an untyped all-null column.
func everyType() *dataset.Table {
	day := time.Date(2024, 2, 29, 0, 0, 0, 0, time.UTC)
	return dataset.MustNewTable("every",
		dataset.IntColumn("i", []int64{1, -2, 0, math.MaxInt64, 5}, []bool{false, false, true, false, false}),
		dataset.FloatColumn("f", []float64{0.5, math.Inf(-1), -0.0, 1e300, 3}, []bool{false, false, false, true, false}),
		dataset.StringColumn("s", []string{"", "héllo", "hidden", "a\x00b", "z"}, []bool{false, false, true, false, false}),
		dataset.BoolColumn("b", []bool{true, false, true, false, true}, []bool{true, false, false, false, false}),
		dataset.TimeColumn("ts", []time.Time{day, day.Add(time.Nanosecond), day.AddDate(-60, 0, 0), day, day}, []bool{false, false, false, false, true}),
		dataset.NewColumn("n", dataset.TypeNull).Take([]int{-1, -1, -1, -1, -1}),
	)
}

func noNulls() *dataset.Table {
	return dataset.MustNewTable("plain",
		dataset.IntColumn("id", []int64{10, 20, 30}, nil),
		dataset.StringColumn("tag", []string{"ab", "c", "abc"}, nil),
	)
}

func noRows() *dataset.Table {
	return dataset.MustNewTable("empty",
		dataset.IntColumn("id", nil, nil),
		dataset.StringColumn("tag", nil, nil),
	)
}

// referenceFingerprint is the boxed, cell-at-a-time form of the byte stream
// contentFingerprint writes: FNV-1a over names, type names and string cells a
// byte at a time, a number folded in as one 8-byte word, its high half then
// folded down.
func referenceFingerprint(t *dataset.Table) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	bytes := func(bs ...byte) {
		for _, b := range bs {
			h = (h ^ uint64(b)) * prime
		}
	}
	word := func(u uint64) {
		h = (h ^ u) * prime
		h ^= h >> 32
	}
	bytes([]byte(t.Name())...)
	for _, c := range t.Columns() {
		bytes([]byte(c.Name())...)
		bytes([]byte(c.Type().String())...)
		for i := 0; i < c.Len(); i++ {
			v := c.Value(i)
			switch v.Type {
			case dataset.TypeNull:
				bytes(0xff)
			case dataset.TypeInt:
				word(uint64(v.I))
			case dataset.TypeFloat:
				word(math.Float64bits(v.F))
			case dataset.TypeString:
				bytes([]byte(v.S)...)
				bytes(0)
			case dataset.TypeBool:
				if v.B {
					bytes(1)
				} else {
					bytes(2)
				}
			case dataset.TypeTime:
				word(uint64(v.T.UnixNano()))
			}
		}
	}
	return h
}

func referenceBytes(t *dataset.Table) int64 {
	var total int64
	for _, c := range t.Columns() {
		for i := 0; i < c.Len(); i++ {
			switch c.Type() {
			case dataset.TypeInt, dataset.TypeFloat, dataset.TypeTime:
				total += 8
			case dataset.TypeBool:
				total++
			case dataset.TypeString:
				total += 4 + int64(len(c.Value(i).S))
			}
		}
		if c.NullCount() > 0 {
			total += int64(c.Len() / 8)
		}
	}
	return total
}

// TestFingerprintGolden pins the byte stream. Re-recorded in PR 21, when
// numbers began to mix as one 8-byte word, its high half folded down after
// the multiply (TestFingerprintSeesSignFlips): fingerprints key in-memory caches
// and diffs only, nothing persists one, so the values may move between builds
// but not between runs.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		table *dataset.Table
		want  uint64
	}{
		{everyType(), 0xc7431acda52e8a05},
		{noNulls(), 0x11fa6853a56965c5},
		{noRows(), 0x7f11b5b4f1a3aff5},
	} {
		db := NewDatabase("w", DefaultPricing, 2)
		if err := db.CreateTable(tc.table); err != nil {
			t.Fatal(err)
		}
		stats, err := db.Stats(tc.table.Name())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Fingerprint != tc.want {
			t.Errorf("%s: fingerprint %#x, recorded %#x", tc.table.Name(), stats.Fingerprint, tc.want)
		}
	}
}

// TestFingerprintSeesSignFlips: flipping the top bit of two number cells — a
// float's sign, a time's unix-nanosecond sign — or of a whole column with an
// even number of rows, moves the fingerprint. A word mixed without folding
// its high half down would keep each flip alone in bit 63, where two cancel.
func TestFingerprintSeesSignFlips(t *testing.T) {
	floats := []float64{1.5, -2.25, 3, 1e10}
	nanos := []int64{1, 1_700_000_000_000_000_000, -42, 7}
	table := func(fs []float64, ns []int64) *dataset.Table {
		ts := make([]time.Time, len(ns))
		for i, n := range ns {
			ts[i] = time.Unix(0, n).UTC()
		}
		return dataset.MustNewTable("signs", dataset.FloatColumn("f", fs, nil), dataset.TimeColumn("t", ts, nil))
	}
	flip := func(idx ...int) ([]float64, []int64) {
		fs, ns := append([]float64(nil), floats...), append([]int64(nil), nanos...)
		for _, i := range idx {
			fs[i] = -fs[i]
			ns[i] ^= math.MinInt64
		}
		return fs, ns
	}
	base := contentFingerprint(table(floats, nanos))
	for _, idx := range [][]int{{0, 1}, {1, 3}, {0, 1, 2, 3}} {
		fs, ns := flip(idx...)
		if contentFingerprint(table(fs, nanos)) == base {
			t.Errorf("negating float cells %v kept the fingerprint", idx)
		}
		if contentFingerprint(table(floats, ns)) == base {
			t.Errorf("flipping the sign bit of time cells %v kept the fingerprint", idx)
		}
	}
}

func TestFingerprintAndBytesMatchReference(t *testing.T) {
	tables := []*dataset.Table{everyType(), noNulls(), noRows()}
	for seed := int64(1); seed <= 5; seed++ {
		for _, ct := range sqlengine.CorpusTables(rand.New(rand.NewSource(seed)), 300, 40) {
			tables = append(tables, ct)
		}
	}
	for _, tbl := range tables {
		if got, want := contentFingerprint(tbl), referenceFingerprint(tbl); got != want {
			t.Errorf("%s: fingerprint %#x, reference %#x", tbl.Name(), got, want)
		}
		if got, want := estimateBytes(tbl, 0, tbl.NumRows()), referenceBytes(tbl); got != want {
			t.Errorf("%s: %d bytes, reference %d", tbl.Name(), got, want)
		}
	}
}

// sameCells is Table.Equal plus the column types, which Equal tolerates.
func sameCells(t *testing.T, what string, got, want *dataset.Table) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: cells differ\ngot  %s\nwant %s", what, got, want)
	}
	for i, c := range got.Columns() {
		if c.Type() != want.Columns()[i].Type() {
			t.Errorf("%s: column %s is %s, want %s", what, c.Name(), c.Type(), want.Columns()[i].Type())
		}
	}
}

func TestScanMatchesIngestAtBlockSizes(t *testing.T) {
	big := sqlengine.CorpusTables(rand.New(rand.NewSource(9)), 200, 10)["t1"]
	for _, tbl := range []*dataset.Table{everyType(), noNulls(), noRows(), big} {
		for _, blockRows := range []int{1, 64, tbl.NumRows() + 1} {
			db := NewDatabase("w", DefaultPricing, blockRows)
			if err := db.CreateTable(tbl); err != nil {
				t.Fatal(err)
			}
			got, err := db.Scan(tbl.Name())
			if err != nil {
				t.Fatal(err)
			}
			sameCells(t, tbl.Name(), got, tbl)
			stats, _ := db.Stats(tbl.Name())
			wantBlocks := (tbl.NumRows() + blockRows - 1) / blockRows
			if wantBlocks == 0 {
				wantBlocks = 1
			}
			if stats.Rows != tbl.NumRows() || stats.Blocks != wantBlocks {
				t.Errorf("%s at %d rows a block: stats %+v, want %d rows in %d blocks", tbl.Name(), blockRows, stats, tbl.NumRows(), wantBlocks)
			}
		}
	}
}

func TestSampleBlocksRowsForSeed(t *testing.T) {
	const blockRows, rate = 16, 0.3
	tbl := sqlengine.CorpusTables(rand.New(rand.NewSource(4)), 200, 10)["t1"]
	db := NewDatabase("w", DefaultPricing, blockRows)
	if err := db.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		got, err := db.SampleBlocks("t1", rate, seed)
		if err != nil {
			t.Fatal(err)
		}
		// The blocks the seed picks, by the documented rule, row by row.
		blocks := (tbl.NumRows() + blockRows - 1) / blockRows
		perm := rand.New(rand.NewSource(seed)).Perm(blocks)[:int(float64(blocks)*rate+0.5)]
		sort.Ints(perm)
		var rows []int
		for _, b := range perm {
			for r := b * blockRows; r < (b+1)*blockRows && r < tbl.NumRows(); r++ {
				rows = append(rows, r)
			}
		}
		sameCells(t, "sample", got, tbl.Take(rows))
	}
}

// Ingest builds the stored table before taking the write lock, so readers
// beside a ReplaceTable see the old table or the new one, never a mix.
func TestReplaceBesideReadersIsAtomic(t *testing.T) {
	// Version v has 100+v rows, every cell v.
	version := func(v int64) *dataset.Table {
		vals := make([]int64, 100+v)
		for i := range vals {
			vals[i] = v
		}
		return dataset.MustNewTable("events", dataset.IntColumn("v", vals, nil))
	}
	db := NewDatabase("w", DefaultPricing, 7)
	if err := db.CreateTable(version(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := db.Scan("events")
				if err != nil {
					t.Error(err)
					return
				}
				vals, _, _ := got.Columns()[0].Ints()
				for _, v := range vals {
					if v != vals[0] || len(vals) != 100+int(v) {
						t.Errorf("scan mixes versions: %d rows, first %d, saw %d", len(vals), vals[0], v)
						return
					}
				}
				stats, err := db.Stats("events")
				if err != nil {
					t.Error(err)
					return
				}
				if want := contentFingerprint(version(int64(stats.Rows - 100))); stats.Fingerprint != want || stats.Blocks != (stats.Rows+6)/7 {
					t.Errorf("stats mix versions: %+v", stats)
					return
				}
			}
		}()
	}
	for v := int64(1); v <= 50; v++ {
		if err := db.ReplaceTable(version(v)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
}

var benchSink *dataset.Table

func benchTable(rows int) *dataset.Table {
	return sqlengine.CorpusTables(rand.New(rand.NewSource(1)), rows, 1)["t1"]
}

// BenchmarkScanAssemble is one full scan of a 50 000-row, five-column table
// stored in 64-row blocks (782 of them), the shape bench/'s warehouse has.
func BenchmarkScanAssemble(b *testing.B) {
	db := NewDatabase("w", DefaultPricing, 64)
	if err := db.CreateTable(benchTable(50_000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := db.Scan("t1")
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t
	}
}

// BenchmarkReplaceTable is one ingest of the same table: partition,
// size estimate and content fingerprint.
func BenchmarkReplaceTable(b *testing.B) {
	tbl := benchTable(50_000)
	db := NewDatabase("w", DefaultPricing, 64)
	if err := db.CreateTable(tbl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.ReplaceTable(tbl); err != nil {
			b.Fatal(err)
		}
	}
}

// TestViewOutlivesItsParent: a view taken of a scanned table — a window of it,
// a one-block sample — keeps its rows while the table it came from is
// replaced over and over beside it (run under -race: the replace never
// writes what a view reads). Immutability is the contract the cache, the
// fingerprint memo and session retention all rely on.
func TestViewOutlivesItsParent(t *testing.T) {
	version := func(v int64) *dataset.Table {
		vals, tags := make([]int64, 64), make([]string, 64)
		for i := range vals {
			vals[i], tags[i] = v*1000+int64(i), fmt.Sprintf("v%d-%d", v, i)
		}
		return dataset.MustNewTable("events", dataset.IntColumn("v", vals, nil), dataset.StringColumn("tag", tags, nil))
	}
	db := NewDatabase("w", DefaultPricing, 8)
	if err := db.CreateTable(version(0)); err != nil {
		t.Fatal(err)
	}
	scanned, err := db.Scan("events")
	if err != nil {
		t.Fatal(err)
	}
	sample, err := db.SampleBlocks("events", 0.1, 3) // one block of eight: a view
	if err != nil {
		t.Fatal(err)
	}
	views := []*dataset.Table{scanned.Window(10, 30), scanned.Head(5), sample}
	want := make([]string, len(views))
	for i, v := range views {
		want[i] = v.String()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := int64(1); v <= 200; v++ {
			if err := db.ReplaceTable(version(v)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for i, v := range views {
			if got := v.String(); got != want[i] {
				t.Fatalf("view %d changed under a replace:\n%s\nwant\n%s", i, got, want[i])
			}
		}
	}
	if now, _ := db.Scan("events"); now.Equal(scanned) {
		t.Fatal("the table was never replaced")
	}
}
