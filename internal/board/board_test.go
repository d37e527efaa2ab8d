package board

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/testutil"
)

func smallTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	tb, err := dataset.ReadCSVString("t", "a\n1\n")
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	return tb
}

func TestPublishPinsAndVersions(t *testing.T) {
	h := NewHub()
	h.SetClock(faults.NewVirtualClock(time.Unix(0, 0)))
	b, err := h.Create("ops", "Ops board", "alice")
	if err != nil {
		t.Fatal(err)
	}
	u1 := b.Publish("revenue", Update{Message: "v1"})
	u2 := b.Publish("revenue", Update{Message: "v2", Degraded: true, DegradedNote: "sampled"})
	u3 := b.Publish("errors", Update{Message: "e1"})
	if u1.Version != 1 || u2.Version != 2 || u3.Version != 3 {
		t.Fatalf("versions = %d,%d,%d; want 1,2,3", u1.Version, u2.Version, u3.Version)
	}
	snap := b.Snapshot()
	if snap.Version != 3 || len(snap.Tiles) != 2 {
		t.Fatalf("snapshot version=%d tiles=%d", snap.Version, len(snap.Tiles))
	}
	if snap.Tiles[0].Tile != "revenue" || snap.Tiles[0].Last.Message != "v2" || !snap.Tiles[0].Last.Degraded {
		t.Fatalf("revenue tile not pinned to latest: %+v", snap.Tiles[0])
	}
	if snap.Tiles[0].Updates != 2 || snap.Tiles[1].Updates != 1 {
		t.Fatalf("tile update counts wrong: %+v", snap.Tiles)
	}
}

func TestSubscribeBacklogThenLive(t *testing.T) {
	h := NewHub()
	b, _ := h.Create("ops", "", "alice")
	b.Publish("a", Update{Message: "1"})
	b.Publish("a", Update{Message: "2"})

	sub, backlog, err := b.Subscribe(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(backlog) != 1 || backlog[0].Message != "2" {
		t.Fatalf("backlog = %+v; want just version 2", backlog)
	}
	b.Publish("a", Update{Message: "3"})
	got := <-sub.C
	if got.Message != "3" || got.Version != 3 {
		t.Fatalf("live update = %+v", got)
	}
}

func TestSlowConsumerEvicted(t *testing.T) {
	h := NewHub()
	b, _ := h.Create("ops", "", "alice")
	sub, _, err := b.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish("a", Update{Message: "1"}) // fills the buffer
	b.Publish("a", Update{Message: "2"}) // overflows: evict
	// The channel must close after draining the buffered update.
	u, ok := <-sub.C
	if !ok || u.Message != "1" {
		t.Fatalf("first recv = %+v ok=%v", u, ok)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("channel still open after eviction")
	}
	if sub.Err() != ErrSlowConsumer {
		t.Fatalf("Err() = %v; want ErrSlowConsumer", sub.Err())
	}
	if n := b.subscriberCount(); n != 0 {
		t.Fatalf("subscriberCount = %d after eviction", n)
	}
	if st := h.Stats(); st.Evictions != 1 || st.Publishes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeleteEndsSubscriptions(t *testing.T) {
	h := NewHub()
	b, _ := h.Create("ops", "", "alice")
	sub, _, err := b.Subscribe(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Delete("ops") {
		t.Fatal("Delete returned false")
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("channel open after board delete")
	}
	if sub.Err() != ErrDeleted {
		t.Fatalf("Err() = %v; want ErrDeleted", sub.Err())
	}
	if _, _, err := b.Subscribe(0, 1); err != ErrDeleted {
		t.Fatalf("Subscribe on deleted board = %v; want ErrDeleted", err)
	}
	if _, ok := h.Get("ops"); ok {
		t.Fatal("Get found deleted board")
	}
}

func TestHistoryRingCapped(t *testing.T) {
	h := NewHub()
	h.retain = 4
	b, _ := h.Create("ops", "", "alice")
	for i := 1; i <= 10; i++ {
		b.Publish("a", Update{Message: fmt.Sprintf("m%d", i)})
	}
	_, backlog, err := b.Subscribe(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 4 || backlog[0].Version != 7 || backlog[3].Version != 10 {
		t.Fatalf("backlog = %+v; want versions 7..10", backlog)
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	assertNoLeaks := testutil.LeakCheck(t)
	h := NewHub()
	b, _ := h.Create("ops", "", "alice")
	tb := smallTable(t, 1)

	const subscribers, publishers, perPublisher = 8, 4, 50
	// Churning subscribers with tiny buffers: most get evicted; the test
	// is that nothing deadlocks or races and every channel terminates.
	// All of them subscribe before any publisher starts, so the close
	// sweep after the publishers reaches every survivor.
	subs := make([]*Subscription, subscribers)
	for i := range subs {
		sub, _, err := b.Subscribe(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	var readers sync.WaitGroup
	for _, sub := range subs {
		readers.Add(1)
		go func(sub *Subscription) {
			defer readers.Done()
			for range sub.C {
			}
			if sub.Err() != ErrSlowConsumer && sub.Err() != nil {
				t.Errorf("unexpected sub error %v", sub.Err())
			}
		}(sub)
	}
	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish(fmt.Sprintf("tile%d", p), Update{Table: tb, Message: "m"})
			}
		}(p)
	}
	pubs.Wait()
	// Close the survivors so their range loops end; closing an evicted
	// subscription is a no-op.
	for _, sub := range subs {
		sub.Close()
	}
	readers.Wait()
	if got := b.Snapshot().Version; got != publishers*perPublisher {
		t.Fatalf("final version = %d; want %d", got, publishers*perPublisher)
	}
	assertNoLeaks()
}
