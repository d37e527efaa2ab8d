package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The CSV reader as it was before it parsed each cell once: ParseValue tried
// int, float and five date layouts in turn, and ReadCSV parsed every cell
// twice (once to infer its column's type, once to fill it) and boxed it
// through Column.Append. It is frozen here as the oracle the typed reader is
// checked against.

func seedParseValue(s string) Value {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" || strings.EqualFold(trimmed, "null") || strings.EqualFold(trimmed, "nan") {
		return Null
	}
	switch strings.ToLower(trimmed) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
		return Float(f)
	}
	if t, err := seedParseTime(trimmed); err == nil {
		return Time(t)
	}
	return Str(s)
}

func seedParseTime(s string) (time.Time, error) {
	for _, layout := range []string{TimeLayout, TimeLayoutFull, "01-02-2006", "01/02/2006", time.RFC3339} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("dataset: cannot parse %q as a date", s)
}

func seedReadCSV(name string, r io.Reader) (*Table, error) {
	reader := csv.NewReader(r)
	reader.TrimLeadingSpace = true
	records, err := reader.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv %q: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: csv %q has no header row", name)
	}
	header := records[0]
	rows := records[1:]
	cols := make([]*Column, len(header))
	for j, colName := range header {
		colName = strings.TrimSpace(colName)
		typ := seedInferColumnType(rows, j)
		c := NewColumn(colName, typ)
		for _, rec := range rows {
			if j >= len(rec) {
				c.Append(Null)
				continue
			}
			c.Append(seedParseAs(rec[j], typ))
		}
		cols[j] = c
	}
	return NewTable(name, cols...)
}

func seedInferColumnType(rows [][]string, col int) Type {
	typ := TypeNull
	for _, rec := range rows {
		if col >= len(rec) {
			continue
		}
		v := seedParseValue(rec[col])
		if v.IsNull() {
			continue
		}
		typ = seedMergeInferred(typ, v.Type)
		if typ == TypeString {
			break
		}
	}
	if typ == TypeNull {
		return TypeString
	}
	return typ
}

func seedMergeInferred(a, b Type) Type {
	if a == TypeNull {
		return b
	}
	if a == b {
		return a
	}
	if a.Numeric() && b.Numeric() {
		return TypeFloat
	}
	return TypeString
}

func seedParseAs(cell string, typ Type) Value {
	v := seedParseValue(cell)
	if v.IsNull() {
		return Null
	}
	coerced, ok := Coerce(v, typ)
	if !ok {
		return Str(cell)
	}
	return coerced
}

// sameValue reports whether two parsed values are the same: floats bit for
// bit, times as instants that also render alike (a parsed offset keeps its
// wall clock in String).
func sameValue(got, want Value) bool {
	if got.Type != want.Type {
		return false
	}
	switch got.Type {
	case TypeInt:
		return got.I == want.I
	case TypeFloat:
		return math.Float64bits(got.F) == math.Float64bits(want.F)
	case TypeString:
		return got.S == want.S
	case TypeBool:
		return got.B == want.B
	case TypeTime:
		return got.T.Equal(want.T) && got.String() == want.String()
	}
	return true
}

// sameTable reports how got differs from want — name, column names and
// types, null masks, then cells — or "" when it does not.
func sameTable(got, want *Table) string {
	if got.Name() != want.Name() {
		return fmt.Sprintf("name %q, want %q", got.Name(), want.Name())
	}
	if fmt.Sprintf("%q", got.ColumnNames()) != fmt.Sprintf("%q", want.ColumnNames()) {
		return fmt.Sprintf("columns %q, want %q", got.ColumnNames(), want.ColumnNames())
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for i, c := range got.Columns() {
		w := want.Columns()[i]
		if c.Type() != w.Type() || c.Len() != w.Len() {
			return fmt.Sprintf("column %q: %s × %d, want %s × %d", c.Name(), c.Type(), c.Len(), w.Type(), w.Len())
		}
		for r := 0; r < c.Len(); r++ {
			if c.IsNull(r) != w.IsNull(r) || !sameValue(c.Value(r), w.Value(r)) {
				return fmt.Sprintf("column %q row %d: %#v, want %#v", c.Name(), r, c.Value(r), w.Value(r))
			}
		}
	}
	return ""
}

// csvCellPools are the cells a random CSV column draws from: each column
// takes one pool, so columns often get one type, and the edge pool holds every
// cell whose syntax is a corner of ParseValue.
var csvCellPools = [][]string{
	{"0", "1", "-7", "42", "+5", "007", "-0", "123456789012345678", "9223372036854775807"},
	{"1.5", ".5", "5.", "1e5", "-2.25", "1_0", "0x1p-2", "7"},
	{"true", "FALSE", "True", "false"},
	{"2024-01-02", "2024-01-02 03:04:05", "2024-01-02 00:00:00", "2024-01-02 03:04:05.5",
		"01-02-2006", "01/02/2006", "2024-01-02T03:04:05Z", "2024-01-02T03:04:05+02:00"},
	{"g3", "héllo", "i", "a,b", `say "hi"`, "\xff", "x y", "Alice"},
	{"", " ", "null", "NaN", "NULL"},
	csvEdgeCells,
}

var csvEdgeCells = []string{
	"", " ", "null", "NaN", "TRUE", "-0", "+5", "007", " 12", "12 ",
	"9223372036854775807", "9223372036854775808", "1234567890123456789",
	".5", "5.", "1e5", "1_0", "0x10", "0x1p-2", "Inf", "+inf", "infinity",
	"i", "g3", "héllo", "\xff", "2024-01-02", "2024-13-02",
	"2024-01-02 03:04:05", "2024-01-02 03:04:05.5", "2024-01-02 25:04:05",
	"01-02-2006", "01/02/2006", "2024-01-02T03:04:05Z",
	"2024-01-02T03:04:05+02:00", "2024-1-2", "1234-56-78", "a,b", `say "hi"`,
}

// randomCSV writes a small CSV of 1–4 columns and 0–6 rows. A cell that needs
// quotes gets them, any other sometimes does; now and then a row is ragged or
// a header name repeats, so both readers must fail alike.
func randomCSV(rng *rand.Rand) string {
	cols, rows := 1+rng.Intn(4), rng.Intn(7)
	names := []string{"a", " b", "c c", "d"}
	pools := make([][]string, cols)
	header := make([]string, cols)
	for j := range pools {
		pools[j] = csvCellPools[rng.Intn(len(csvCellPools))]
		header[j] = names[rng.Intn(len(names))]
		if j > 0 && rng.Intn(20) == 0 {
			header[j] = header[0]
		} else {
			header[j] += strconv.Itoa(j)
		}
	}
	eol := "\n"
	if rng.Intn(8) == 0 {
		eol = "\r\n"
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for j, cell := range cells {
			if j > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\r\n") || rng.Intn(3) == 0 {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString(eol)
	}
	writeRow(header)
	for i := 0; i < rows; i++ {
		n := cols
		if rng.Intn(40) == 0 {
			n = 1 + rng.Intn(cols+1)
		}
		cells := make([]string, n)
		for j := range cells {
			pool := pools[j%cols]
			if rng.Intn(5) == 0 {
				pool = csvCellPools[5]
			}
			cells[j] = pool[rng.Intn(len(pool))]
		}
		writeRow(cells)
	}
	return b.String()
}

// checkAgainstSeed reads data with ReadCSV and with the seed reader and
// reports how the two differ: both must fail, or both must build equal tables.
// The seed reader is handed the data without its byte order mark, which it
// kept as part of the first column's name.
func checkAgainstSeed(data string) string {
	got, gotErr := ReadCSVString("t", data)
	want, wantErr := seedReadCSV("t", strings.NewReader(strings.TrimPrefix(data, utf8BOM)))
	switch {
	case gotErr != nil && wantErr != nil:
		return ""
	case gotErr != nil || wantErr != nil:
		return fmt.Sprintf("error %v, seed error %v", gotErr, wantErr)
	}
	return sameTable(got, want)
}

func TestReadCSVMatchesSeedReader(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		data := randomCSV(rng)
		if diff := checkAgainstSeed(data); diff != "" {
			t.Fatalf("csv %q: %s", data, diff)
		}
	}
}

func FuzzParseValue(f *testing.F) {
	for _, cell := range csvEdgeCells {
		f.Add(cell)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := ParseValue(s), seedParseValue(s)
		if want.Type == TypeTime && !inNanoRange(want.T) {
			want = Str(s) // the seed kept it a time that a column could not hold
		}
		if !sameValue(got, want) {
			t.Fatalf("ParseValue(%q) = %#v, seed %#v", s, got, want)
		}
		if got.Type == TypeString && got.S != s {
			t.Fatalf("ParseValue(%q) = string %q, want the untrimmed cell", s, got.S)
		}
	})
}

func FuzzReadCSV(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		f.Add(randomCSV(rng))
	}
	f.Add("a\n\"x\ny\",\n")
	f.Add("a,b\n1\n")
	f.Add("\ufeffid,v\n1,2\n")
	f.Fuzz(func(t *testing.T, data string) {
		if hasDateBeyondNanos(data) {
			t.Skip("the seed reader wrapped such a date round to another")
		}
		if diff := checkAgainstSeed(data); diff != "" {
			t.Fatalf("csv %q: %s", data, diff)
		}
	})
}

// hasDateBeyondNanos reports whether a cell of data parses, by the seed's
// rules, as a date outside what a time column's unix nanoseconds hold.
func hasDateBeyondNanos(data string) bool {
	reader := csv.NewReader(strings.NewReader(data))
	reader.TrimLeadingSpace = true
	reader.FieldsPerRecord = -1
	records, _ := reader.ReadAll()
	for _, rec := range records {
		for _, cell := range rec {
			if v := seedParseValue(cell); v.Type == TypeTime && !inNanoRange(v.T) {
				return true
			}
		}
	}
	return false
}

// factsCSV is a file shaped like the benchmark's facts table: `id,grp,cat,v,ts`
// with an int key, two labels, an int measure and a second-resolution
// timestamp.
func factsCSV(rows int) string {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 0, rows*48)
	buf = append(buf, "id,grp,cat,v,ts\n"...)
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ",g"...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(13)), 10)
		buf = append(buf, ",c"...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(1000)), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rng.Int63n(1_000_000), 10)
		buf = append(buf, ',')
		buf = base.Add(time.Duration(i)*time.Second).AppendFormat(buf, TimeLayoutFull)
		buf = append(buf, '\n')
	}
	return string(buf)
}

// BenchmarkReadCSV parses a 200k-row facts file; bytes/s is the file's size.
func BenchmarkReadCSV(b *testing.B) {
	data := factsCSV(200_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSVString("facts", data); err != nil {
			b.Fatal(err)
		}
	}
}
