package scheduler

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"datachat/internal/board"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/recipe"
	"datachat/internal/skills"
)

func benchRig(b *testing.B) (*Scheduler, *faults.VirtualClock) {
	b.Helper()
	p := core.New()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	tb, err := dataset.ReadCSVString("metrics", metricsCSV(2000, 1))
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable(tb); err != nil {
		b.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		b.Fatal(err)
	}
	clock := faults.NewVirtualClock(time.Unix(1_700_000_000, 0))
	hub := board.NewHub()
	hub.SetClock(clock)
	s := New(p, hub)
	s.SetClock(clock)
	g := dag.NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable",
		Args: skills.Args{"database": "wh", "table": "metrics"}, Output: "metrics"})
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"metrics"},
		Args: skills.Args{"condition": "val >= 500"}, Output: "hot"})
	r, err := recipe.FromGraph("hot-metrics", g)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Add(Spec{Name: "bench", User: "bench", Recipe: r,
		Every: time.Hour, Board: "bench", Tile: "hot"}); err != nil {
		b.Fatal(err)
	}
	return s, clock
}

// BenchmarkRefreshUnchanged measures the scheduler's steady state: a
// refresh whose sources have not changed, served end to end from the
// fingerprint-keyed cache (plan + diff + cache hit + publish, no scans).
func BenchmarkRefreshUnchanged(b *testing.B) {
	s, _ := benchRig(b)
	ctx := context.Background()
	if rec, err := s.RunNow(ctx, "bench"); err != nil || rec.Err != "" {
		b.Fatalf("cold run: %v %q", err, rec.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := s.RunNow(ctx, "bench")
		if err != nil || rec.Err != "" {
			b.Fatalf("refresh: %v %q", err, rec.Err)
		}
		if rec.FPChanged != 0 {
			b.Fatalf("refresh recomputed %d nodes, want pure cache", rec.FPChanged)
		}
	}
}

// BenchmarkRefreshOneTableChanged measures the refresh bench/'s
// refresh.mixed times: four 50 000-row warehouse tables, each loaded,
// filtered and concatenated by direct skills; one table is replaced and the
// recipe re-run, so one LoadTable, one KeepRows and the Concatenate execute
// and the other three branches come from the cache.
func BenchmarkRefreshOneTableChanged(b *testing.B) {
	const tables, rows = 4, 50_000
	version := func(t, ver int) *dataset.Table {
		rng := rand.New(rand.NewSource(int64(t*10_007 + ver)))
		ids, hosts, vals := make([]int64, rows), make([]string, rows), make([]int64, rows)
		for i := range ids {
			ids[i], hosts[i], vals[i] = int64(i), fmt.Sprintf("h%d", rng.Intn(7)), rng.Int63n(1000)
		}
		return dataset.MustNewTable(fmt.Sprintf("t%d", t),
			dataset.IntColumn("mid", ids, nil), dataset.StringColumn("host", hosts, nil), dataset.IntColumn("val", vals, nil))
	}
	p := core.New()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	g := dag.NewGraph()
	var hot []string
	for t := 0; t < tables; t++ {
		if err := db.CreateTable(version(t, 0)); err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("t%d", t)
		g.Add(skills.Invocation{Skill: "LoadTable",
			Args: skills.Args{"database": "wh", "table": name}, Output: name + "_raw"})
		g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{name + "_raw"},
			Args: skills.Args{"condition": "val >= 500"}, Output: name + "_hot"})
		hot = append(hot, name+"_hot")
	}
	g.Add(skills.Invocation{Skill: "Concatenate", Inputs: hot, Output: "all_hot"})
	if err := p.ConnectDatabase(db); err != nil {
		b.Fatal(err)
	}
	r, err := recipe.FromGraph("hot-all", g)
	if err != nil {
		b.Fatal(err)
	}
	s := New(p, board.NewHub())
	if _, err := s.Add(Spec{Name: "bench", User: "bench", Recipe: r,
		Every: time.Hour, Board: "bench", Tile: "hot"}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if rec, err := s.RunNow(ctx, "bench"); err != nil || rec.Err != "" {
		b.Fatalf("cold run: %v %q", err, rec.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next := version(i%tables, i+1)
		b.StartTimer()
		if err := db.ReplaceTable(next); err != nil {
			b.Fatal(err)
		}
		rec, err := s.RunNow(ctx, "bench")
		if err != nil || rec.Err != "" {
			b.Fatalf("refresh: %v %q", err, rec.Err)
		}
		if rec.FPChanged == 0 {
			b.Fatal("refresh after a replace recomputed nothing")
		}
	}
}

// BenchmarkRunDueIdle measures the no-op tick: RunDue when no job has
// reached its trigger time — the cost the daemon's poll loop pays when
// nothing is due.
func BenchmarkRunDueIdle(b *testing.B) {
	s, _ := benchRig(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.RunDue(ctx); n != 0 {
			b.Fatalf("idle tick ran %d jobs", n)
		}
	}
}
