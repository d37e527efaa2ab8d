// Package cloud simulates the consumption-priced cloud database the paper's
// §3 targets: tables are stored as row-group blocks, every scan is metered
// by bytes touched, and cost/latency are proportional to the data scanned.
// Block-level sampling reads only a fraction of the blocks, which is exactly
// why a 10% sample cuts the bill ~10× in the paper's IoT anecdote.
package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"datachat/internal/dataset"
)

// DefaultBlockRows is the number of rows per storage block.
const DefaultBlockRows = 8192

// DB is the read interface of a cloud database: the surface skills and
// sessions consume. Database implements it directly; fault-injection
// wrappers implement it around a Database.
type DB interface {
	// Name returns the database name.
	Name() string
	// Pricing returns the pricing plan.
	Pricing() Pricing
	// Meter returns the database's consumption meter.
	Meter() *Meter
	// Stats returns metadata for a stored table (free, never injected).
	Stats(name string) (TableStats, error)
	// Scan reads the full table, charging for every block.
	Scan(name string) (*dataset.Table, error)
	// SampleBlocks reads approximately rate (0, 1] of the table's blocks.
	SampleBlocks(name string, rate float64, seed int64) (*dataset.Table, error)
	// Table implements sqlengine.Catalog with Scan semantics.
	Table(name string) (*dataset.Table, error)
}

var _ DB = (*Database)(nil)

// Pricing models a consumption-based pricing plan.
type Pricing struct {
	// DollarsPerGB is the charge per gigabyte scanned.
	DollarsPerGB float64
	// LatencyPerMB is the simulated scan latency per megabyte (virtual time;
	// the simulator accounts for it without sleeping).
	LatencyPerMB time.Duration
}

// DefaultPricing matches common on-demand warehouse pricing (~$5/TB scanned).
var DefaultPricing = Pricing{DollarsPerGB: 0.005, LatencyPerMB: 2 * time.Millisecond}

// Meter accumulates consumption across queries.
type Meter struct {
	mu           sync.Mutex
	bytesScanned int64
	queries      int
	latency      time.Duration
}

func (m *Meter) charge(bytes int64, p Pricing) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytesScanned += bytes
	m.queries++
	m.latency = satAdd(m.latency, scanLatency(bytes, p.LatencyPerMB))
}

// scanLatency converts bytes scanned to simulated latency in integer math:
// whole megabytes times the per-MB rate plus the pro-rated remainder. The
// float path it replaces lost precision past 2^53 bytes and could overflow
// the Duration range silently on multi-TB scans; here the whole-MB product
// saturates at the Duration maximum instead of wrapping negative.
func scanLatency(bytes int64, perMB time.Duration) time.Duration {
	if bytes <= 0 || perMB <= 0 {
		return 0
	}
	const maxDuration = time.Duration(1<<63 - 1)
	whole := bytes >> 20
	frac := bytes & (1<<20 - 1)
	if whole > 0 && perMB > maxDuration/time.Duration(whole) {
		return maxDuration
	}
	d := time.Duration(whole) * perMB
	var fracLat time.Duration
	if frac > 0 {
		if perMB <= maxDuration/time.Duration(frac) {
			fracLat = time.Duration(frac) * perMB / (1 << 20)
		} else {
			fracLat = perMB / (1 << 20) * time.Duration(frac)
		}
	}
	return satAdd(d, fracLat)
}

// satAdd adds two non-negative durations, saturating instead of wrapping.
func satAdd(a, b time.Duration) time.Duration {
	const maxDuration = time.Duration(1<<63 - 1)
	if a > maxDuration-b {
		return maxDuration
	}
	return a + b
}

// BytesScanned returns the total bytes scanned so far.
func (m *Meter) BytesScanned() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytesScanned
}

// Queries returns the number of metered scans.
func (m *Meter) Queries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queries
}

// SimulatedLatency returns the accumulated virtual scan latency.
func (m *Meter) SimulatedLatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latency
}

// Cost returns the accumulated dollar cost under the given pricing.
func (m *Meter) Cost(p Pricing) float64 {
	return float64(m.BytesScanned()) / (1 << 30) * p.DollarsPerGB
}

// Reset zeroes the meter.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytesScanned, m.queries, m.latency = 0, 0, 0
}

// block is one row group — rows [from, to) of its stored table — with its
// estimated on-disk size.
type block struct {
	from, to int
	bytes    int64
}

// storedTable is a table partitioned into blocks: the ingested table itself,
// immutable once handed over, and the row ranges that meter its scans.
type storedTable struct {
	name       string
	rows       *dataset.Table
	blocks     []block
	totalBytes int64
	// fingerprint is a content hash of every cell, computed once at ingest
	// (free, like the rest of the metadata) so Stats can report whether the
	// table changed without anyone scanning it.
	fingerprint uint64
}

// Database is a simulated cloud database instance.
type Database struct {
	name      string
	pricing   Pricing
	blockRows int
	mu        sync.RWMutex
	tables    map[string]*storedTable
	meter     Meter
}

// NewDatabase creates a database with the given pricing; blockRows <= 0
// selects DefaultBlockRows.
func NewDatabase(name string, pricing Pricing, blockRows int) *Database {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	return &Database{
		name:      name,
		pricing:   pricing,
		blockRows: blockRows,
		tables:    make(map[string]*storedTable),
	}
}

// Name returns the database name.
func (d *Database) Name() string { return d.name }

// Pricing returns the pricing plan.
func (d *Database) Pricing() Pricing { return d.pricing }

// Meter returns the database's consumption meter.
func (d *Database) Meter() *Meter { return &d.meter }

// CreateTable stores a table, partitioning it into blocks. Loading data in
// is free, matching cloud warehouses that charge for scans, not ingest.
func (d *Database) CreateTable(t *dataset.Table) error {
	st := d.store(t)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[strings.ToLower(t.Name())]; exists {
		return fmt.Errorf("cloud: table %q already exists in %s", t.Name(), d.name)
	}
	d.tables[strings.ToLower(t.Name())] = st
	return nil
}

// ReplaceTable swaps a stored table's content in place — the simulator's
// model of an out-of-band data refresh (a nightly ETL load, a stream sink).
// The table keeps its name but its content fingerprint moves, so schedulers
// diffing Stats see the change without scanning anything.
func (d *Database) ReplaceTable(t *dataset.Table) error {
	st := d.store(t)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tables[strings.ToLower(t.Name())]; !ok {
		return fmt.Errorf("cloud: unknown table %q", t.Name())
	}
	d.tables[strings.ToLower(t.Name())] = st
	return nil
}

// store partitions t into blocks — row ranges of t, which is immutable once
// handed over — and fingerprints its content. It reads nothing of d that
// changes, so ingest runs before the write lock is taken: a reader sees the
// old stored table or the new one, whole, and never waits for a fingerprint.
func (d *Database) store(t *dataset.Table) *storedTable {
	n := t.NumRows()
	st := &storedTable{name: t.Name(), rows: t, fingerprint: contentFingerprint(t)}
	for from := 0; from < n || from == 0; from += d.blockRows {
		b := block{from: from, to: min(from+d.blockRows, n)}
		b.bytes = estimateBytes(t, b.from, b.to)
		st.blocks = append(st.blocks, b)
		st.totalBytes += b.bytes
	}
	return st
}

// fnv64a is the FNV-1a state hash/fnv's New64a keeps, fed in place so that
// hashing a cell converts and allocates nothing. Strings go a byte at a time;
// a number is one 8-byte word mixed in one step, FNV-1a widened to the word.
// A multiply carries a bit only upward, so a difference in a word's top bit
// (a float's sign) would stay alone in bit 63 and two of them would cancel:
// folding the high half down after the multiply spreads it to later steps.
type fnv64a uint64

func (h *fnv64a) byte(b byte) { *h = (*h ^ fnv64a(b)) * 1099511628211 }

func (h *fnv64a) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnv64a) u64(u uint64) {
	*h = (*h ^ fnv64a(u)) * 1099511628211
	*h ^= *h >> 32
}

// hashCells writes one column's cells: 0xff for a null, cell(v) otherwise.
func hashCells[T any](h *fnv64a, vals []T, nulls []bool, cell func(T)) {
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			h.byte(0xff)
		} else {
			cell(v)
		}
	}
}

// contentFingerprint hashes every cell of t (schema included), so two tables
// with the same rows hash equal and any cell change moves the hash. Cache keys
// and schedulers' diffs are made of its stream: names and type names raw, a
// null 0xff, numbers and unix nanoseconds as one 8-byte word (u64), a string
// followed by 0, true 1 and false 2. Nothing persists a fingerprint — it keys
// in-memory caches and diffs only — so the stream may change between builds,
// never within one.
func contentFingerprint(t *dataset.Table) uint64 {
	h := fnv64a(14695981039346656037)
	h.str(t.Name())
	for _, c := range t.Columns() {
		h.str(c.Name())
		h.str(c.Type().String())
		switch c.Type() {
		case dataset.TypeInt:
			vals, nulls, _ := c.Ints()
			hashCells(&h, vals, nulls, func(v int64) { h.u64(uint64(v)) })
		case dataset.TypeFloat:
			vals, nulls, _ := c.FloatVals()
			hashCells(&h, vals, nulls, func(v float64) { h.u64(math.Float64bits(v)) })
		case dataset.TypeString:
			vals, nulls, _ := c.Strs()
			hashCells(&h, vals, nulls, func(v string) { h.str(v); h.byte(0) })
		case dataset.TypeBool:
			vals, nulls, _ := c.Bools()
			hashCells(&h, vals, nulls, func(v bool) {
				if v {
					h.byte(1)
				} else {
					h.byte(2)
				}
			})
		case dataset.TypeTime:
			vals, nulls, _ := c.Times()
			hashCells(&h, vals, nulls, func(v int64) { h.u64(uint64(v)) })
		default: // TypeNull: every row is null
			for i := 0; i < c.Len(); i++ {
				h.byte(0xff)
			}
		}
	}
	return uint64(h)
}

// DropTable removes a table.
func (d *Database) DropTable(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := d.tables[key]; !ok {
		return fmt.Errorf("cloud: unknown table %q", name)
	}
	delete(d.tables, key)
	return nil
}

// TableNames lists stored tables in sorted order.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for _, st := range d.tables {
		names = append(names, st.name)
	}
	sort.Strings(names)
	return names
}

// TableStats describes a stored table without scanning it (metadata reads
// are free, as in real warehouses).
type TableStats struct {
	Name   string
	Rows   int
	Blocks int
	Bytes  int64
	// Fingerprint is a content hash of the stored rows, computed at ingest.
	// It changes exactly when the data does, so cache layers and refresh
	// schedulers can detect staleness from free metadata alone.
	Fingerprint uint64
}

// Stats returns metadata for a stored table.
func (d *Database) Stats(name string) (TableStats, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	st, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return TableStats{}, fmt.Errorf("cloud: unknown table %q", name)
	}
	return TableStats{Name: st.name, Rows: st.rows.NumRows(), Blocks: len(st.blocks), Bytes: st.totalBytes, Fingerprint: st.fingerprint}, nil
}

// Table implements sqlengine.Catalog: a full scan of the named table,
// charged to the meter. SQL execution over the database therefore costs in
// proportion to the tables it reads.
func (d *Database) Table(name string) (*dataset.Table, error) {
	return d.Scan(name)
}

// Scan reads the full table, charging for every block. Every block is read,
// so the result is the stored table itself, shared rather than copied.
func (d *Database) Scan(name string) (*dataset.Table, error) {
	d.mu.RLock()
	st, ok := d.tables[strings.ToLower(name)]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cloud: unknown table %q", name)
	}
	d.meter.charge(st.totalBytes, d.pricing)
	return st.rows, nil
}

// SampleBlocks reads approximately rate (0, 1] of the table's blocks chosen
// pseudo-randomly from seed, charging only for the blocks actually read.
// This is the paper's block-level sampling skill: cost scales with the
// sample rate, not the table size.
func (d *Database) SampleBlocks(name string, rate float64, seed int64) (*dataset.Table, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("cloud: sample rate %v out of range (0, 1]", rate)
	}
	d.mu.RLock()
	st, ok := d.tables[strings.ToLower(name)]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cloud: unknown table %q", name)
	}
	n := len(st.blocks)
	want := int(float64(n)*rate + 0.5)
	if want < 1 {
		want = 1
	}
	if want > n {
		want = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)[:want]
	sort.Ints(perm)
	chosen := make([]block, want)
	var charged int64
	for i, bi := range perm {
		chosen[i] = st.blocks[bi]
		charged += st.blocks[bi].bytes
	}
	d.meter.charge(charged, d.pricing)
	return assemble(st.rows, chosen).WithName(st.name + "_sample"), nil
}

// assemble concatenates the blocks' rows of t on their typed storage; a table
// of one block is that block's view.
func assemble(t *dataset.Table, blocks []block) *dataset.Table {
	if len(blocks) == 1 {
		return t.Window(blocks[0].from, blocks[0].to)
	}
	cols := make([]*dataset.Column, t.NumCols())
	parts := make([]*dataset.Column, len(blocks))
	for ci, c := range t.Columns() {
		for bi, b := range blocks {
			parts[bi] = c.Window(b.from, b.to)
		}
		cols[ci] = dataset.ConcatColumns(parts)
	}
	return dataset.MustNewTable(t.Name(), cols...)
}

// estimateBytes approximates the stored size of rows [from, to) of t from
// its schema: 8 bytes per numeric/time cell, 1 per bool, string length per
// string cell, plus one bit (rounded up to a byte here) per nullable cell.
func estimateBytes(t *dataset.Table, from, to int) int64 {
	var total int64
	n := int64(to - from)
	for _, c := range t.Columns() {
		nulls := c.Nulls()
		if nulls != nil {
			nulls = nulls[from:to]
		}
		switch c.Type() {
		case dataset.TypeInt, dataset.TypeFloat, dataset.TypeTime:
			total += 8 * n
		case dataset.TypeBool:
			total += n
		case dataset.TypeString:
			vals, _, _ := c.Strs()
			for i, v := range vals[from:to] {
				if nulls == nil || !nulls[i] {
					total += int64(len(v))
				}
			}
			total += 4 * n // offsets
		}
		if c.Type() == dataset.TypeNull || slices.Contains(nulls, true) {
			total += n / 8
		}
	}
	return total
}

// ScanLatency estimates the simulated latency of scanning the given byte
// count under a pricing model. It is the planner-facing view of the same
// integer-math model the meter charges with, so cost estimates and observed
// meter latency agree exactly for full scans.
func ScanLatency(bytes int64, p Pricing) time.Duration {
	return scanLatency(bytes, p.LatencyPerMB)
}

// ScanCost estimates the dollar cost of scanning the given byte count under
// a pricing model, mirroring Meter.Cost for a single hypothetical scan.
func ScanCost(bytes int64, p Pricing) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 30) * p.DollarsPerGB
}
