package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"datachat/internal/dataset"
)

// encoderLine is the reference AppendRowChunk must reproduce: what
// json.Encoder writes for the chunk built by EncodeRows.
func encoderLine(offset int, t *dataset.Table, from, to int) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(RowChunk{Offset: offset, Rows: EncodeRows(t, from, to)})
	return buf.Bytes(), err
}

// Cell values that sit on the edges of the encoders' formats.
var (
	edgeInts   = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 53, -(1<<53 + 1)}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, -1e-7, 1e20, 1e21, -1e21,
		123456789e12, 5e-324, 2.2250738585072014e-308, 1e-310, math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.1, 1e-9}
	edgeStrings = []string{"", "plain", `"`, `\`, `a"b\c`, "<script>&amp;</script>", "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "line\u2028sep\u2029para", "bad\xffutf8\xc3", "\xe2\x80", "ünïcødé ✓ 𝄞", "\u00a0"}
)

func randomColumn(rng *rand.Rand, name string, n int) *dataset.Column {
	typ := dataset.Type(rng.Intn(6)) // TypeNull … TypeTime
	if typ == dataset.TypeNull {
		c := dataset.NewColumn(name, dataset.TypeNull)
		for i := 0; i < n; i++ {
			c.Append(dataset.Null)
		}
		return c
	}
	var nulls []bool
	if rng.Intn(2) == 0 {
		nulls = make([]bool, n)
		for i := range nulls {
			nulls[i] = rng.Intn(4) == 0
		}
	}
	switch typ {
	case dataset.TypeInt:
		vals := make([]int64, n)
		for i := range vals {
			if rng.Intn(3) == 0 {
				vals[i] = edgeInts[rng.Intn(len(edgeInts))]
			} else {
				vals[i] = rng.Int63() - rng.Int63()
			}
		}
		return dataset.IntColumn(name, vals, nulls)
	case dataset.TypeFloat:
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = edgeFloats[rng.Intn(len(edgeFloats))]
			case 1:
				vals[i] = math.Float64frombits(rng.Uint64()) // any finite bit pattern
				if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
					vals[i] = 0.5
				}
			default:
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
			}
		}
		return dataset.FloatColumn(name, vals, nulls)
	case dataset.TypeString:
		vals := make([]string, n)
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = edgeStrings[rng.Intn(len(edgeStrings))]
			} else {
				b := make([]byte, rng.Intn(12))
				for k := range b {
					b[k] = byte(rng.Intn(256))
				}
				vals[i] = string(b)
			}
		}
		return dataset.StringColumn(name, vals, nulls)
	case dataset.TypeBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		return dataset.BoolColumn(name, vals, nulls)
	default:
		vals := make([]time.Time, n)
		for i := range vals {
			vals[i] = time.Unix(rng.Int63n(1<<33)-1<<32, rng.Int63n(1e9))
			if rng.Intn(4) == 0 {
				vals[i] = vals[i].Truncate(time.Second)
			}
		}
		return dataset.TimeColumn(name, vals, nulls)
	}
}

func randomTable(rng *rand.Rand) *dataset.Table {
	n := rng.Intn(40)
	cols := make([]*dataset.Column, rng.Intn(6)+1)
	for j := range cols {
		cols[j] = randomColumn(rng, fmt.Sprintf("c%d", j), n)
	}
	t := dataset.MustNewTable("t", cols...)
	if n > 2 && rng.Intn(2) == 0 {
		from := rng.Intn(n / 2)
		t = t.Window(from, from+rng.Intn(n-from)+1) // a view at an offset
	}
	return t
}

// TestAppendRowChunkMatchesEncoder: over random tables of every column type —
// nulls, an all-null TypeNull column, Window views, int64 and float format
// edges, strings json escapes, times with nanoseconds — the stream writer's
// line is byte for byte json.Encoder's for the same chunk, and appending
// keeps what the buffer already held.
func TestAppendRowChunkMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 300; k++ {
		tab := randomTable(rng)
		n := tab.NumRows()
		from := rng.Intn(n + 1)
		to := from + rng.Intn(n-from+1)
		offset := rng.Intn(1 << 20)
		want, err := encoderLine(offset, tab, from, to)
		if err != nil {
			t.Fatalf("table %d: reference encoder: %v", k, err)
		}
		prefix := []byte("kept")
		got, err := AppendRowChunk(prefix, offset, tab, from, to)
		if err != nil {
			t.Fatalf("table %d: %v", k, err)
		}
		if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "kept" {
			t.Fatalf("table %d rows [%d,%d):\n got %q\nwant %q", k, from, to, got, want)
		}
	}
}

// TestAppendRowChunkRefusesNonFinite: a NaN or ±Inf cell fails both encoders
// with the same error, and the stream writer leaves the buffer as it was.
func TestAppendRowChunkRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tab := dataset.MustNewTable("t",
			dataset.IntColumn("i", []int64{1, 2}, nil),
			dataset.FloatColumn("f", []float64{1.5, bad}, nil))
		_, want := encoderLine(0, tab, 0, 2)
		buf := []byte("kept")
		got, err := AppendRowChunk(buf, 0, tab, 0, 2)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%v: error %v, the encoder's %v", bad, err, want)
		}
		if string(got) != "kept" {
			t.Errorf("%v: the failed chunk left %q in the buffer", bad, got)
		}
	}
}

// wideTable is shaped like the benchmark's streamed results: an int id, a
// short string label and an int value.
func wideTable(n int) *dataset.Table {
	ids, grps, vs := make([]int64, n), make([]string, n), make([]int64, n)
	for i := range ids {
		ids[i], grps[i], vs[i] = int64(i), fmt.Sprintf("g%d", i%97), int64(i*7919%1_000_000)
	}
	return dataset.MustNewTable("wide",
		dataset.IntColumn("id", ids, nil), dataset.StringColumn("grp", grps, nil), dataset.IntColumn("v", vs, nil))
}

// BenchmarkStreamEncode times writing a 150k-row, three-column table as
// 1 024-row stream lines: encoder is EncodeRows through json.Encoder, append
// is AppendRowChunk into one reused buffer.
func BenchmarkStreamEncode(b *testing.B) {
	const rows, chunk = 150_000, 1024
	tab := wideTable(rows)
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := json.NewEncoder(&discard{})
			for off := 0; off < rows; off += chunk {
				end := min(off+chunk, rows)
				if err := enc.Encode(RowChunk{Offset: off, Rows: EncodeRows(tab, off, end)}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			for off := 0; off < rows; off += chunk {
				var err error
				if buf, err = AppendRowChunk(buf[:0], off, tab, off, min(off+chunk, rows)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
