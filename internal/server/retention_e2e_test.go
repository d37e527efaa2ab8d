package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"datachat/internal/client"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dataset"
	"datachat/internal/server"
)

// TestRowsOfADroppedOutput: the session leaves a step's output to the cache,
// yet /rows still serves it two steps later — byte for byte what it served
// right after the step ran, whether the shared cache still has it or, after
// an invalidation, it is recomputed.
func TestRowsOfADroppedOutput(t *testing.T) {
	p := core.New()
	hs := httptest.NewServer(server.New(p, server.Config{}))
	t.Cleanup(hs.Close)
	c := client.New(hs.URL)
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	rows := func() []byte {
		t.Helper()
		page, err := c.Rows(ctx, "s", "node2", 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(page)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	lines := []string{
		"Load data from the file sales.csv",
		"Keep the rows where status = 'Successful'",
		"Create a new column revenue as price * (1 - discount)",
		"Compute the sum of revenue for each region and call the computed columns TotalRevenue",
		"Sort the rows by TotalRevenue in descending order",
	}
	var first []byte
	current := ""
	for i, line := range lines {
		resp, err := c.RunGEL(ctx, "s", "ann", line, current)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		current = nodeOutput(resp)
		if i == 2 {
			first = rows() // node2 is the target
		}
	}
	sess, err := p.Session("s")
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(sess.Context().DatasetNames(), "node2") {
		t.Fatal("node2 is still held two steps later")
	}
	before := p.CacheStats()
	if hit := rows(); string(hit) != string(first) {
		t.Errorf("from the cache:\n%s\nright after the step:\n%s", hit, first)
	}
	if after := p.CacheStats(); after.Hits == before.Hits || after.Misses != before.Misses {
		t.Errorf("re-deriving node2 should be a cache hit: %+v -> %+v", before, after)
	}
	p.InvalidateCache()
	before = p.CacheStats()
	if recomputed := rows(); string(recomputed) != string(first) {
		t.Errorf("recomputed:\n%s\nright after the step:\n%s", recomputed, first)
	}
	if after := p.CacheStats(); after.Misses == before.Misses {
		t.Errorf("after an invalidation node2 should recompute: %+v -> %+v", before, after)
	}
	if slices.Contains(sess.Context().DatasetNames(), "node2") {
		t.Error("re-deriving node2 published it back into the session")
	}

	z, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The cache holds every step, so the session pins none of them.
	if held, ok := z.SessionBytes["s"]; z.Cache["budget"] <= 0 || z.Cache["bytes"] <= 0 || z.Cache["bytes"] > z.Cache["budget"] || !ok || held != 0 {
		t.Errorf("statsz cache %v, session bytes %v", z.Cache, z.SessionBytes)
	}
	// The load went to the main segment at once; the derived steps, each
	// computed once, sit on probation.
	for _, k := range []string{"probation_entries", "probation_bytes", "promotions"} {
		if _, ok := z.Cache[k]; !ok {
			t.Errorf("statsz cache has no %q: %v", k, z.Cache)
		}
	}
	if z.Cache["probation_entries"] < 1 || z.Cache["probation_entries"] >= z.Cache["entries"] ||
		z.Cache["probation_bytes"] <= 0 || z.Cache["probation_bytes"] >= z.Cache["bytes"] {
		t.Errorf("statsz cache %v, want the load in main and the derived steps on probation", z.Cache)
	}
}

// TestRowsOfAVolatileLineage: a step downstream of a cloud scan or a
// snapshot create stays in the session after later steps run, because
// re-deriving it would re-run that lineage. So /rows of such a step is free
// and has no side effects: the warehouse meter, the snapshot's refresh time
// and the shared cache are all unchanged, and the rows are the ones the step
// produced.
func TestRowsOfAVolatileLineage(t *testing.T) {
	p := core.New()
	var tick atomic.Int64
	p.Snapshots.SetClock(func() time.Time { return time.Unix(tick.Add(1), 0) })
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 4)
	orders := dataset.MustNewTable("orders",
		dataset.IntColumn("id", []int64{1, 2, 3, 4, 5, 6}, nil),
		dataset.IntColumn("v", []int64{10, 20, 30, 40, 50, 60}, nil))
	if err := db.CreateTable(orders); err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server.New(p, server.Config{}))
	t.Cleanup(hs.Close)
	c := client.New(hs.URL)
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	rows := func(name string) []byte {
		t.Helper()
		page, err := c.Rows(ctx, "s", name, 0, 100)
		if err != nil {
			t.Fatalf("rows of %s: %v", name, err)
		}
		b, err := json.Marshal(page)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	steps := []struct{ gel, current string }{
		{"Load data from the file sales.csv", ""},                                      // node0: cached
		{"Create a snapshot snap of the table orders from the database warehouse", ""}, // node1
		{"Use the snapshot snap", ""},                                                  // node2
		{"Keep the rows where v > 15", "node2"},                                        // node3
		{"Load the table orders from the database warehouse", ""},                      // node4
		{"Keep the rows where v > 25", "node4"},                                        // node5
		{"Keep the rows where price > 0", "node0"},                                     // node6
	}
	held := map[string][]byte{}
	for i, st := range steps {
		if _, err := c.RunGEL(ctx, "s", "ann", st.gel, st.current); err != nil {
			t.Fatalf("%s: %v", st.gel, err)
		}
		if i%2 == 1 && i < 6 {
			name := fmt.Sprintf("node%d", i)
			held[name] = rows(name)
		}
	}
	sess, err := p.Session("s")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"node1", "node2", "node3", "node4", "node5"} {
		if !slices.Contains(sess.Context().DatasetNames(), name) {
			t.Errorf("%s has a volatile lineage yet was dropped", name)
		}
	}
	info, err := p.Snapshots.Info("snap")
	if err != nil {
		t.Fatal(err)
	}
	scanned, queries, refreshed := db.Meter().BytesScanned(), db.Meter().Queries(), info.RefreshedAt
	cache := p.CacheStats()
	if cache.Entries == 0 {
		t.Fatal("the cache holds nothing an invalidation could wipe")
	}
	for name, want := range held {
		if got := rows(name); string(got) != string(want) {
			t.Errorf("%s now:\n%s\nwhen it ran:\n%s", name, got, want)
		}
	}
	if info, err = p.Snapshots.Info("snap"); err != nil || !info.RefreshedAt.Equal(refreshed) {
		t.Errorf("reading rows refreshed the snapshot: %v, %v -> %v", err, refreshed, info.RefreshedAt)
	}
	if db.Meter().BytesScanned() != scanned || db.Meter().Queries() != queries {
		t.Errorf("reading rows charged the warehouse: %d B / %d queries -> %d B / %d queries",
			scanned, queries, db.Meter().BytesScanned(), db.Meter().Queries())
	}
	if now := p.CacheStats(); now.Entries != cache.Entries || now.Bytes != cache.Bytes {
		t.Errorf("reading rows changed the cache: %+v -> %+v", cache, now)
	}
}
