package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"datachat/internal/dataset"
)

// The shared input of the interactive and stream workloads: one CSV file
// `id,grp,cat,v,ts` whose values come from the seed. The benchmark keeps the
// raw columns beside the CSV text so it can work out, without the engine, what
// every generated request must return.
const (
	factsFile   = "facts.csv"
	factsRows   = 200_000
	factsGroups = 13
	factsCats   = 1_000
	// v is uniform on [0, vDomain): wide enough that a cold run draws more
	// than a thousand distinct filter constants without repeating one.
	vDomain = 1_000_000
	// tsBase is 2024-01-01 00:00:00 UTC; row i is i seconds later.
	tsBase = 1_704_067_200
)

type facts struct {
	grp []uint8
	cat []uint16
	v   []int64
	csv string
}

func newFacts(seed int64, rows int) *facts {
	rng := rand.New(rand.NewSource(seed))
	f := &facts{grp: make([]uint8, rows), cat: make([]uint16, rows), v: make([]int64, rows)}
	buf := make([]byte, 0, rows*48)
	buf = append(buf, "id,grp,cat,v,ts\n"...)
	for i := 0; i < rows; i++ {
		f.grp[i] = uint8(rng.Intn(factsGroups))
		f.cat[i] = uint16(rng.Intn(factsCats))
		f.v[i] = rng.Int63n(vDomain)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ",g"...)
		buf = strconv.AppendInt(buf, int64(f.grp[i]), 10)
		buf = append(buf, ",c"...)
		buf = strconv.AppendInt(buf, int64(f.cat[i]), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, f.v[i], 10)
		buf = append(buf, ',')
		buf = time.Unix(tsBase+int64(i), 0).UTC().AppendFormat(buf, dataset.TimeLayoutFull)
		buf = append(buf, '\n')
	}
	f.csv = string(buf)
	return f
}

func (f *facts) rows() int { return len(f.v) }

// table parses the CSV the way the platform's LoadData skill does, for the
// row-reference engine to run on.
func (f *facts) table() (*dataset.Table, error) {
	return dataset.ReadCSVString("facts", f.csv)
}

// expectation is what one response must carry: the full result's row count and
// the checksum of the rows the response inlines (its first page, or for a
// stream every row).
type expectation struct {
	rows int
	sum  uint64
}

// catsInOrder lists the cat codes in the order the engine emits groups: by
// label ("c0", "c1", "c10", "c100", …).
var catsInOrder = func() []uint16 {
	cats := make([]uint16, factsCats)
	for i := range cats {
		cats[i] = uint16(i)
	}
	sort.Slice(cats, func(a, b int) bool {
		return strconv.Itoa(int(cats[a])) < strconv.Itoa(int(cats[b]))
	})
	return cats
}()

// chainExpect works out, in one pass over the raw columns, what the four steps
// of a chain with filter constant k return: the filter `v >= k`, the per-cat
// sum and count of what it keeps, those groups sorted by sum descending, and
// the first limitRows of them. page is how many rows a response inlines.
func (f *facts) chainExpect(k int64, page int) [4]expectation {
	type group struct {
		cat        uint16
		sum, count int64
	}
	var out [4]expectation
	var filter hasher
	var byCat [factsCats]group
	for i, v := range f.v {
		if v < k {
			continue
		}
		if out[0].rows < page {
			filter.int(int64(i))
			filter.label('g', int64(f.grp[i]))
			filter.label('c', int64(f.cat[i]))
			filter.int(v)
			filter.time(tsBase + int64(i))
			filter.endRow()
		}
		out[0].rows++
		byCat[f.cat[i]].sum += v
		byCat[f.cat[i]].count++
	}
	out[0].sum = filter.sum()

	groups := make([]group, 0, factsCats)
	for _, c := range catsInOrder {
		if g := byCat[c]; g.count > 0 {
			g.cat = c
			groups = append(groups, g)
		}
	}
	pageSum := func(n int) uint64 {
		var h hasher
		for _, g := range groups[:min(n, len(groups))] {
			h.label('c', int64(g.cat))
			h.int(g.sum)
			h.int(g.count)
			h.endRow()
		}
		return h.sum()
	}
	out[1] = expectation{len(groups), pageSum(page)}
	sort.SliceStable(groups, func(a, b int) bool { return groups[a].sum > groups[b].sum })
	out[2] = expectation{len(groups), pageSum(page)}
	out[3] = expectation{min(limitRows, len(groups)), pageSum(limitRows)}
	return out
}

// headExpect is what loading the file returns and what projecting it onto
// id, grp, v returns: every row, the first page of them inlined.
func (f *facts) headExpect(page int) [2]expectation {
	var load, project hasher
	for i := 0; i < page && i < f.rows(); i++ {
		load.int(int64(i))
		load.label('g', int64(f.grp[i]))
		load.label('c', int64(f.cat[i]))
		load.int(f.v[i])
		load.time(tsBase + int64(i))
		load.endRow()
		project.int(int64(i))
		project.label('g', int64(f.grp[i]))
		project.int(f.v[i])
		project.endRow()
	}
	return [2]expectation{{f.rows(), load.sum()}, {f.rows(), project.sum()}}
}

// streamExpect is what `SELECT id, grp, v … WHERE v >= k` streams: every
// matching row, in file order.
func (f *facts) streamExpect(k int64) expectation {
	var h hasher
	n := 0
	for i, v := range f.v {
		if v < k {
			continue
		}
		h.int(int64(i))
		h.label('g', int64(f.grp[i]))
		h.int(v)
		h.endRow()
		n++
	}
	return expectation{rows: n, sum: h.sum()}
}

// The refresh workload's warehouse: whTables tables `mid,host,val` that the
// scheduled recipe filters on `val >= whCut` and concatenates.
const (
	whTables = 4 // of a quarter of the facts file's rows each: 50 000
	whHosts  = 7
	whCut    = 500
)

// whTable builds version ver of warehouse table t. Every version holds
// different values, so replacing a table always changes its content
// fingerprint and the number of rows that pass the recipe's filter.
func whTable(seed int64, t, ver, rows int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(t)*10_007 + int64(ver)))
	ids := make([]int64, rows)
	hosts := make([]string, rows)
	vals := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
		hosts[i] = whHostNames[rng.Intn(whHosts)]
		vals[i] = rng.Int63n(1000)
	}
	return dataset.MustNewTable(whTableName(t),
		dataset.IntColumn("mid", ids, nil),
		dataset.StringColumn("host", hosts, nil),
		dataset.IntColumn("val", vals, nil),
	)
}

var whHostNames = []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6"}

func whTableName(t int) string { return "t" + strconv.Itoa(t) }

// whExpect is what the board must show once the recipe has run over tables:
// the rows with val >= whCut of each table in turn.
func whExpect(tables []*dataset.Table, page int) expectation {
	var h hasher
	n := 0
	for _, t := range tables {
		cols := t.Columns()
		mids, _, _ := cols[0].Ints()
		hosts, _, _ := cols[1].Strs()
		vals, _, _ := cols[2].Ints()
		for i, val := range vals {
			if val < whCut {
				continue
			}
			if n < page {
				h.int(mids[i])
				h.str(hosts[i])
				h.int(val)
				h.endRow()
			}
			n++
		}
	}
	return expectation{rows: n, sum: h.sum()}
}
