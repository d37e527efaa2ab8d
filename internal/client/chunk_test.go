package client

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/wire"
)

// streamLines is what the server writes for t in chunks of chunk rows: the
// data lines only, each with its newline.
func streamLines(t testing.TB, tab *dataset.Table, chunk int) [][]byte {
	t.Helper()
	var lines [][]byte
	for off := 0; off < tab.NumRows(); off += chunk {
		line, err := wire.AppendRowChunk(nil, off, tab, off, min(off+chunk, tab.NumRows()))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// everyType is a small table with a column of each type — an all-null one
// included — nulls, int64 edges and strings that need escaping.
func everyType() *dataset.Table {
	null := dataset.NewColumn("n", dataset.TypeNull)
	for i := 0; i < 4; i++ {
		null.Append(dataset.Null)
	}
	return dataset.MustNewTable("t",
		dataset.IntColumn("i", []int64{math.MinInt64, 0, math.MaxInt64, 7}, []bool{false, true, false, false}),
		dataset.FloatColumn("f", []float64{math.Copysign(0, -1), 1e-7, 1e21, 2.5}, []bool{false, false, false, true}),
		dataset.StringColumn("s", []string{"plain", `q"b\s`, "tab\there <&>", "bad\xffutf8 \u00fcn\u2028"}, nil),
		dataset.BoolColumn("b", []bool{true, false, true, false}, []bool{false, false, true, false}),
		dataset.TimeColumn("ts", []time.Time{time.Unix(1, 5), time.Unix(1e9, 0), {}, time.Unix(-1e9, 999999999)}, nil),
		null,
	)
}

// FuzzStreamChunkDecode: for any bytes, the stream's chunk decoder either
// declines the line or returns exactly what wire.DecodeJSON decodes from it;
// it never panics.
func FuzzStreamChunkDecode(f *testing.F) {
	tab := everyType()
	for _, line := range streamLines(f, tab, 3) {
		f.Add(bytes.TrimSpace(line))
	}
	for _, s := range []string{
		`{"offset":0,"rows":[]}`,
		`{"offset":0,"rows":[[],[1]]}`,
		`{"offset":-0,"rows":[[0,-0,1.5e+3,1E-2,"é\ud800",null,true,false]]}`,
		`{"offset":9223372036854775808,"rows":[[1]]}`,
		`{"offset":1.0,"rows":[[1]]}`,
		`{"offset":01,"rows":[[1]]}`,
		`{"offset":1,"rows":[[01]]}`,
		`{"offset":1,"rows":[[1.]]}`,
		`{"offset":1,"rows":[[-]]}`,
		`{"offset":1,"rows":[[1e]]}`,
		`{"offset":1,"rows":[["a\"]]}`,
		`{"offset":1,"rows":[["\x"]]}`,
		"{\"offset\":1,\"rows\":[[\"a\x01\"]]}",
		`{"offset":1,"rows":[[[1]]]}`,
		`{"offset":1,"rows":[[1]]} `,
		`{"offset":1,"rows":[[1]]}{}`,
		`{"offset":1,"rows":null}`,
		`{"offset":4,"last":true,"total_rows":4}`,
		`{"offset":0,"board":{"board":"ops","tile":"hot","version":1,"at":"2026-01-01T00:00:00Z"}}`,
		`{"name":"t","cols":[{"name":"i","type":"int"}],"total_rows":0,"offset":0,"next_offset":-1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var d rowChunkDecoder
		got, ok := d.decode(line)
		if !ok {
			return
		}
		var want wire.RowChunk
		if err := wire.DecodeJSON(bytes.NewReader(line), &want); err != nil {
			t.Fatalf("decoded %q, which wire.DecodeJSON refuses: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %q as\n%#v\nwire.DecodeJSON gives\n%#v", line, got, want)
		}
	})
}

// TestStreamChunksStayIntact: the rows handed to the callback are the
// callback's to keep — RunStreamTable and the benchmark append them and read
// them after the stream ends — so no later chunk may reuse their memory.
func TestStreamChunksStayIntact(t *testing.T) {
	tab := everyType()
	lines := streamLines(t, tab, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"name":"t","cols":[],"total_rows":0,"offset":0,"next_offset":-1}`)
		for _, line := range lines {
			w.Write(line)
		}
		fmt.Fprintf(w, `{"offset":%d,"last":true,"total_rows":%d}`+"\n", tab.NumRows(), tab.NumRows())
	}))
	t.Cleanup(hs.Close)
	var kept [][]any
	_, err := New(hs.URL).StreamRows(context.Background(), "s", "t", 1, func(_ *wire.Table, rc wire.RowChunk) error {
		kept = append(kept, rc.Rows...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]any
	for _, line := range lines {
		if _, ok := new(rowChunkDecoder).decode(bytes.TrimSpace(line)); !ok {
			t.Fatalf("the chunk decoder declined the server's line %q", line)
		}
		var rc wire.RowChunk
		if err := wire.DecodeJSON(bytes.NewReader(line), &rc); err != nil {
			t.Fatal(err)
		}
		want = append(want, rc.Rows...)
	}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("rows kept across chunks:\n%v\nwant\n%v", kept, want)
	}
}

// BenchmarkStreamDecode times decoding a 150k-row stream of (int, string,
// int) rows in 1 024-row lines, shaped like the benchmark's streamed filter:
// json is wire.DecodeJSON per line, scanner the stream's chunk decoder.
func BenchmarkStreamDecode(b *testing.B) {
	const rows, chunk = 150_000, 1024
	ids, grps, vs := make([]int64, rows), make([]string, rows), make([]int64, rows)
	for i := range ids {
		ids[i], grps[i], vs[i] = int64(i), fmt.Sprintf("g%d", i%97), int64(i*7919%1_000_000)
	}
	tab := dataset.MustNewTable("wide",
		dataset.IntColumn("id", ids, nil), dataset.StringColumn("grp", grps, nil), dataset.IntColumn("v", vs, nil))
	lines := streamLines(b, tab, chunk)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				var rc wire.RowChunk
				if err := wire.DecodeJSON(bytes.NewReader(line), &rc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var d rowChunkDecoder
			for _, line := range lines {
				if _, ok := d.decode(bytes.TrimSpace(line)); !ok {
					b.Fatal("declined a server line")
				}
			}
		}
	})
}
