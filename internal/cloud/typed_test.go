package cloud

import (
	"encoding/binary"
	"hash/fnv"
	"io"
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

// referenceFingerprint is the cell-at-a-time hash contentFingerprint replaced.
func referenceFingerprint(t *dataset.Table) uint64 {
	h := fnv.New64a()
	io.WriteString(h, t.Name())
	var buf [8]byte
	for _, c := range t.Columns() {
		io.WriteString(h, c.Name())
		io.WriteString(h, c.Type().String())
		for i := 0; i < c.Len(); i++ {
			v := c.Value(i)
			switch v.Type {
			case dataset.TypeNull:
				h.Write([]byte{0xff})
			case dataset.TypeInt:
				binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
				h.Write(buf[:])
			case dataset.TypeFloat:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
				h.Write(buf[:])
			case dataset.TypeString:
				io.WriteString(h, v.S)
				h.Write([]byte{0})
			case dataset.TypeBool:
				if v.B {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{2})
				}
			case dataset.TypeTime:
				binary.LittleEndian.PutUint64(buf[:], uint64(v.T.UnixNano()))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
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

func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		table *dataset.Table
		want  uint64
	}{
		{everyType(), 0x5406d9cecc37346e},
		{noNulls(), 0x78f1a71d8292acde},
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
		if got, want := estimateBytes(tbl), referenceBytes(tbl); got != want {
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
