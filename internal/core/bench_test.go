package core

import (
	"fmt"
	"strings"
	"testing"

	"datachat/internal/skills"
)

// BenchmarkPlanStep plans step 40 of an analysis over a 10 MB registered
// file — the passes every step runs before it can be served from the cache.
// The file's hash is a lookup taken at registration, so the file's size is
// not in the number.
func BenchmarkPlanStep(b *testing.B) {
	var csv strings.Builder
	csv.WriteString(factsCSV(2000))
	for csv.Len() < 10<<20 {
		fmt.Fprintf(&csv, "%d,g%d,c%d,%d\n", csv.Len(), csv.Len()%13, csv.Len()%50, csv.Len()%1000)
	}
	p := New()
	p.RegisterFile("facts.csv", csv.String())
	if _, err := p.CreateSession("a", "ann"); err != nil {
		b.Fatal(err)
	}
	invs := make([]skills.Invocation, 0, 41)
	for node := 0; node <= 40; node++ {
		inv, err := p.ParseGEL(chainStep(node, 100+node/4), chainInput(node))
		if err != nil {
			b.Fatal(err)
		}
		invs = append(invs, inv)
	}
	if _, err := p.Run("a", "ann", invs...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Explain("a", ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdChains runs the benchmark's interactive.cold shape: one
// analysis over a 50k-row file whose every chain — filter, aggregate, sort,
// limit — keeps rows with a constant no other chain uses, so every step
// misses the cache and its result is read only by the chain's next step. It
// reports what the shared cache pins (cache_MB) and the live heap after a
// full collection (heap_MB), the two terms of the process's memory.
func BenchmarkColdChains(b *testing.B) {
	p := New()
	p.RegisterFile("facts.csv", factsCSV(50_000))
	if _, err := p.CreateSession("cold", "bench"); err != nil {
		b.Fatal(err)
	}
	run := func(node, k int) {
		inv, err := p.ParseGEL(chainStep(node, k), chainInput(node))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run("cold", "bench", inv); err != nil {
			b.Fatal(err)
		}
	}
	run(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for step := 1; step <= 4; step++ {
			run(4*i+step, i%1000)
		}
	}
	b.StopTimer()
	heap := heapAfterGC()
	b.ReportMetric(float64(p.CacheStats().Bytes)/(1<<20), "cache_MB")
	b.ReportMetric(float64(heap)/(1<<20), "heap_MB")
}
