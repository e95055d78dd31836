package track

import (
	"runtime"
	"testing"
	"time"
)

// TestStatsAgreesWithCatalog: Stats and Catalog are the two views of sealed
// history, so every quantity both report must agree after each lifecycle
// step — auto seals, an epoch Compact, an explicit Seal, a tiered
// compaction pass, a retention pass and Close — spilled or in memory.
func TestStatsAgreesWithCatalog(t *testing.T) {
	for _, spill := range []bool{true, false} {
		name := "memory"
		if spill {
			name = "spill"
		}
		t.Run(name, func(t *testing.T) {
			dir := ""
			if spill {
				dir = t.TempDir()
			}
			tr, err := Open(dir, WithStore(Store{Spill: SpillPolicy{SealEvents: 10}}))
			if err != nil {
				t.Fatal(err)
			}
			check := func(step string) {
				t.Helper()
				st, c := tr.Stats(), tr.Catalog()
				var spilled int64
				for _, sg := range c.Segments {
					if sg.Path != "" {
						spilled += sg.Bytes
					}
				}
				if st.SealedEvents != c.SealedEvents {
					t.Errorf("%s: SealedEvents: stats %d, catalog %d", step, st.SealedEvents, c.SealedEvents)
				}
				if st.RetainedEvents != c.RetainedEvents {
					t.Errorf("%s: RetainedEvents: stats %d, catalog %d", step, st.RetainedEvents, c.RetainedEvents)
				}
				if st.Segments != len(c.Segments) {
					t.Errorf("%s: Segments: stats %d, catalog %d", step, st.Segments, len(c.Segments))
				}
				if st.CatalogGen != c.Generation {
					t.Errorf("%s: CatalogGen %d, catalog Generation %d", step, st.CatalogGen, c.Generation)
				}
				if st.SpilledBytes != spilled {
					t.Errorf("%s: SpilledBytes: stats %d, catalog %d", step, st.SpilledBytes, spilled)
				}
				if !spill && spilled != 0 {
					t.Errorf("%s: in-memory tracker spilled %d bytes", step, spilled)
				}
			}
			th, o := tr.NewThread("t"), tr.NewObject("o")
			write := func(n int) {
				for i := 0; i < n; i++ {
					th.Write(o, nil)
				}
			}

			write(35)
			check("auto seals")
			if st := tr.Stats(); st.Segments < 3 {
				t.Fatalf("auto sealing left %d segments", st.Segments)
			}
			if _, _, err := tr.Compact(); err != nil { // graduates epoch 0
				t.Fatal(err)
			}
			check("compact")
			write(25)
			if err := tr.Seal(); err != nil {
				t.Fatal(err)
			}
			check("seal")
			if n, err := tr.CompactSegments(CompactPolicy{MaxSegments: 1}); err != nil || n == 0 {
				t.Fatalf("CompactSegments eliminated %d: %v", n, err)
			}
			check("compact segments")
			if n, err := tr.RetainSegments(RetainPolicy{MaxBytes: 1}); err != nil || n == 0 {
				t.Fatalf("RetainSegments retired %d: %v", n, err)
			}
			if tr.Stats().RetainedEvents == 0 {
				t.Fatal("retention did not move the floor")
			}
			check("retain segments")
			write(5)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			check("close")
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStatsInsideDoCallback: a Do callback runs before its commit takes the
// world read lock, so it may call Stats and Catalog even while another
// goroutine's Seal is waiting on the barrier.
func TestStatsInsideDoCallback(t *testing.T) {
	tr := NewTracker()
	th, o := tr.NewThread("t"), tr.NewObject("o")
	th.Write(o, nil)

	// Stand in for a commit in flight on the last shard: Seal takes every
	// other shard and then waits for it.
	last := len(tr.world.shards) - 1
	tr.world.RLock(last)
	sealed := make(chan error, 1)
	go func() { sealed <- tr.Seal() }()
	// A waiting writer makes TryRLock fail.
	for tr.world.shards[last].TryRLock() {
		tr.world.shards[last].RUnlock()
		runtime.Gosched()
	}

	entered := make(chan struct{})
	go func() {
		<-entered
		tr.world.RUnlock(last) // the in-flight commit finishes
	}()
	done := make(chan TrackerStats, 1)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		th.Write(o, func() {
			close(entered)
			st := tr.Stats()
			tr.Catalog()
			done <- st
		})
	}()
	select {
	case st := <-done:
		if st.Events < 1 {
			t.Errorf("Stats inside the callback reports %d events", st.Events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stats inside a Do callback did not return while a Seal waited on the barrier")
	}
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	<-wrote
	if st := tr.Stats(); st.Seals != 1 || st.Events != 2 {
		t.Fatalf("after the seal: %d seals, %d events", st.Seals, st.Events)
	}
}
