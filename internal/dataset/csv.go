package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// ReadCSV parses CSV data with a header row into a table. One leading UTF-8
// byte order mark is dropped, so it does not become part of the first
// column's name. Each cell is parsed once, by ParseValue, straight into its
// column's typed storage. A column takes the widest type of its cells: int
// widens to float, and any other mix makes a string column, which holds a
// text cell as given and any other cell as its parsed value renders. An
// all-null column is typed string so it stays usable.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	bom, err := br.Peek(len(utf8BOM))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("dataset: reading csv %q: %w", name, err)
	}
	if string(bom) == utf8BOM {
		_, _ = br.Discard(len(utf8BOM)) // the bytes Peek buffered: cannot fail
	}
	reader := csv.NewReader(br)
	reader.TrimLeadingSpace = true
	records, err := reader.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv %q: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: csv %q has no header row", name)
	}
	header, rows := records[0], records[1:]
	cols := make([]*Column, len(header))
	for j, colName := range header {
		cols[j] = readColumn(strings.TrimSpace(colName), rows, j)
	}
	return NewTable(name, cols...)
}

const utf8BOM = "\ufeff"

// ReadCSVString parses CSV from a string; a convenience for examples and tests.
func ReadCSVString(name, data string) (*Table, error) {
	return ReadCSV(name, strings.NewReader(data))
}

// readColumn builds column j of rows (every row has it: the csv reader
// refuses ragged rows). Storage follows the type inferred so far: an int
// column widens to floats in place, and the cell that makes the column a
// string column has the cells before it rendered as text, the only cells
// parsed twice.
func readColumn(name string, rows [][]string, j int) *Column {
	n := len(rows)
	typ := TypeNull
	var (
		ints  []int64 // an int column's values or a time column's unix nanoseconds
		fls   []float64
		strs  []string
		bools []bool
		nulls []bool
	)
	for i, rec := range rows {
		v := ParseValue(rec[j])
		if v.IsNull() {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
			continue
		}
		if wider := CommonType(typ, v.Type); wider != typ {
			switch wider {
			case TypeInt, TypeTime:
				ints = make([]int64, n)
			case TypeBool:
				bools = make([]bool, n)
			case TypeFloat:
				fls = make([]float64, n)
				if typ == TypeInt {
					for k, x := range ints[:i] {
						fls[k] = float64(x)
					}
				}
			case TypeString:
				strs = make([]string, n)
				if typ != TypeNull {
					for k, prev := range rows[:i] {
						if nulls == nil || !nulls[k] {
							strs[k] = ParseValue(prev[j]).String()
						}
					}
				}
			}
			typ = wider
		}
		switch typ {
		case TypeInt:
			ints[i] = v.I
		case TypeFloat:
			fls[i], _ = v.AsFloat()
		case TypeString:
			strs[i] = v.String()
		case TypeBool:
			bools[i] = v.B
		case TypeTime:
			ints[i] = v.T.UnixNano()
		}
	}
	switch typ {
	case TypeInt:
		return IntColumn(name, ints, nulls)
	case TypeFloat:
		return FloatColumn(name, fls, nulls)
	case TypeBool:
		return BoolColumn(name, bools, nulls)
	case TypeTime:
		return TimeNanosColumn(name, ints, nulls)
	case TypeNull:
		strs = make([]string, n)
	}
	return StringColumn(name, strs, nulls)
}

// WriteCSV writes the table as CSV with a header row. Nulls become empty
// cells so a round trip re-infers them as null.
func WriteCSV(t *Table, w io.Writer) error {
	writer := csv.NewWriter(w)
	if err := writer.Write(t.ColumnNames()); err != nil {
		return fmt.Errorf("dataset: writing csv header: %w", err)
	}
	record := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for j, c := range t.Columns() {
			v := c.Value(r)
			if v.IsNull() {
				record[j] = ""
			} else {
				record[j] = v.String()
			}
		}
		if err := writer.Write(record); err != nil {
			return fmt.Errorf("dataset: writing csv row %d: %w", r, err)
		}
	}
	writer.Flush()
	return writer.Error()
}
