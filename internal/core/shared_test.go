package core

import (
	"fmt"
	"sync"
	"testing"

	"mixedclock/internal/event"
)

func TestSharedCoverObserveCoversEveryEdge(t *testing.T) {
	s := NewSharedCover(NewCoverTracker(NewHybrid()))
	edges := []struct{ t, o int }{{0, 0}, {1, 0}, {0, 1}, {2, 2}, {1, 0}, {0, 0}}
	for _, e := range edges {
		tid, oid := event.ThreadID(e.t), event.ObjectID(e.o)
		thrIdx, objIdx, width := s.Reveal(tid, oid)
		if thrIdx < 0 && objIdx < 0 {
			t.Fatalf("edge (%d,%d) revealed but uncovered", e.t, e.o)
		}
		if width != s.Size() {
			t.Fatalf("width %d != size %d", width, s.Size())
		}
		if thrIdx >= width || objIdx >= width {
			t.Fatalf("component index out of range: thr=%d obj=%d width=%d", thrIdx, objIdx, width)
		}
		if lt, lo, lw := s.Lookup(tid, oid); lt != thrIdx || lo != objIdx || lw != width {
			t.Fatalf("edge (%d,%d): Lookup (%d,%d,%d) != Reveal (%d,%d,%d)",
				e.t, e.o, lt, lo, lw, thrIdx, objIdx, width)
		}
	}
	// The cover invariant over the revealed graph, and Lookup covers every
	// revealed edge.
	g := s.Graph()
	comps := NewComponentSet()
	for _, c := range s.Components() {
		comps.Add(c)
	}
	for _, e := range g.EdgeList() {
		if !comps.Covers(event.ThreadID(e.Thread), event.ObjectID(e.Object)) {
			t.Fatalf("edge %v not covered by %v", e, comps)
		}
		if thrIdx, objIdx, _ := s.Lookup(event.ThreadID(e.Thread), event.ObjectID(e.Object)); thrIdx < 0 && objIdx < 0 {
			t.Fatalf("edge %v: Lookup finds no component", e)
		}
	}
}

func TestSharedCoverIndicesAreStable(t *testing.T) {
	// Append-only component sets mean an index, once returned, never moves.
	s := NewSharedCover(NewCoverTracker(NaiveThreads{}))
	first, _, _ := s.Reveal(0, 0)
	if first < 0 {
		t.Fatal("naive mechanism must cover via the thread")
	}
	for i := 1; i < 50; i++ {
		s.Reveal(event.ThreadID(i), event.ObjectID(i%7))
	}
	if again, _, _ := s.Lookup(0, 0); again != first {
		t.Fatalf("component index moved: %d → %d (Lookup)", first, again)
	}
	if again, _, _ := s.Reveal(0, 0); again != first {
		t.Fatalf("component index moved: %d → %d (repeat Reveal)", first, again)
	}
}

func TestSharedCoverConcurrentReveal(t *testing.T) {
	// Many goroutines race to reveal overlapping edge sets, then look the
	// same edges up lock-free; every answer must come back covered and the
	// final state must equal a serial reveal of the same edge set (same
	// cover size for naive, which is deterministic in the set of distinct
	// threads revealed).
	s := NewSharedCover(NewCoverTracker(NaiveThreads{}))
	const nGoroutines, nThreads, nObjects, ops = 8, 10, 6, 400
	var wg sync.WaitGroup
	errs := make(chan error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				tid := event.ThreadID((g + i) % nThreads)
				oid := event.ObjectID((g * i) % nObjects)
				thrIdx, objIdx, width := s.Reveal(tid, oid)
				if thrIdx < 0 && objIdx < 0 {
					errs <- fmt.Errorf("edge (%d,%d) revealed but uncovered", tid, oid)
					return
				}
				if width == 0 {
					errs <- fmt.Errorf("edge (%d,%d): zero width after reveal", tid, oid)
					return
				}
				if thrIdx, objIdx, _ = s.Lookup(tid, oid); thrIdx < 0 && objIdx < 0 {
					errs <- fmt.Errorf("edge (%d,%d) revealed but Lookup finds no component", tid, oid)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != nThreads {
		t.Fatalf("naive cover size = %d, want %d (one per revealed thread)", got, nThreads)
	}
}

// countGenerations wraps ct and counts the generations the cover retires;
// published generations are the retired ones plus the current one.
func countGenerations(ct *CoverTracker) (*SharedCover, *int) {
	s := NewSharedCover(ct)
	retired := new(int)
	s.OnRetire(func(any) { *retired++ })
	return s, retired
}

func TestSharedCoverNoGenerationWithoutNewComponent(t *testing.T) {
	// Once every thread is a component, new edges (new objects included)
	// are covered on arrival: Reveal must record them without publishing
	// a single generation.
	const nThreads, nEdges = 8, 10_000
	s, retired := countGenerations(NewCoverTracker(NaiveThreads{}))
	for tid := 0; tid < nThreads; tid++ {
		s.Reveal(event.ThreadID(tid), 0)
	}
	before := *retired
	for i := 0; i < nEdges; i++ {
		tid, oid := event.ThreadID(i%nThreads), event.ObjectID(1+i/nThreads)
		if thrIdx, _, width := s.Reveal(tid, oid); thrIdx != int(tid) || width != nThreads {
			t.Fatalf("edge (%d,%d): plan thr=%d width=%d, want %d and %d", tid, oid, thrIdx, width, tid, nThreads)
		}
	}
	if got := *retired - before; got != 0 {
		t.Fatalf("%d new edges over a fixed component set published %d generations, want 0", nEdges, got)
	}
	if got := s.Graph().Edges(); got != nThreads+nEdges {
		t.Fatalf("graph holds %d edges, want %d", got, nThreads+nEdges)
	}
}

func TestSharedCoverGenerationsBoundedByWidth(t *testing.T) {
	// Each generation is published for a component addition, so a cover
	// publishes at most width+1 generations (the initial one plus one per
	// component) however many edges it reveals.
	for _, mech := range []Mechanism{NaiveThreads{}, NaiveObjects{}, Popularity{}, NewHybrid()} {
		t.Run(mech.Name(), func(t *testing.T) {
			s, retired := countGenerations(NewCoverTracker(mech))
			for i := 0; i < 20_000; i++ {
				// 16 threads over a growing object set, each object shared
				// by four threads: the discovery shape of a live tracker.
				s.Reveal(event.ThreadID(i%16), event.ObjectID(i/4))
			}
			if published, width := *retired+1, s.Size(); published > width+1 {
				t.Fatalf("published %d generations for final width %d, want at most %d", published, width, width+1)
			}
		})
	}
}
