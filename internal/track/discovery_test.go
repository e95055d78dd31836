package track

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/vclock"
)

// revealedBit reports whether th's revealed-object bitset holds o.
func revealedBit(th *Thread, o event.ObjectID) bool {
	w := int(o) >> 6
	return w < len(th.revealed) && th.revealed[w]&(1<<(uint(o)&63)) != 0
}

// checkRevealedBits takes the world write lock — no commit in flight, so
// every thread's bitset is quiescent — and returns an error unless every
// set bit names an edge of the current cover's graph.
func checkRevealedBits(tr *Tracker) error {
	tr.world.Lock()
	defer tr.world.Unlock()
	g := tr.cover.Load().Graph()
	tr.reg.Lock()
	defer tr.reg.Unlock()
	for _, th := range tr.threads {
		for w, word := range th.revealed {
			for b := 0; b < 64; b++ {
				if word&(1<<b) != 0 && !g.HasEdge(int(th.id), w*64+b) {
					return fmt.Errorf("thread %d: revealed bit for object %d names no graph edge", th.id, w*64+b)
				}
			}
		}
	}
	return nil
}

// TestRevealLimboBoundedByWidth pins the reclamation cost of discovery: a
// cover generation is published, and so retired, only when a component is
// added, so with no seal to drain the limbo list it holds at most width
// entries however many new edges commits reveal.
func TestRevealLimboBoundedByWidth(t *testing.T) {
	tr := NewTracker()
	threads := make([]*Thread, 16)
	for i := range threads {
		threads[i] = tr.NewThread("t")
	}
	const newEdges = 10_000
	for i := 0; i < newEdges/4; i++ {
		o := tr.NewObject("fresh")
		for k := 0; k < 4; k++ {
			threads[(i+k)%len(threads)].Write(o, nil)
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if got := tr.cover.Load().Graph().Edges(); got != newEdges {
		t.Fatalf("revealed %d edges, want %d", got, newEdges)
	}
	if pending, width := tr.reclaim.pending(), tr.Size(); pending > width {
		t.Fatalf("%d limbo entries after %d new-edge commits, want at most width %d", pending, newEdges, width)
	}
}

// TestRevealedBitsSurviveCompact: Compact re-seeds the cover from the
// analysis of the same graph, so a thread's revealed bits stay true across
// the epoch boundary and re-touching those edges resolves lock-free,
// covered, without adding a component.
func TestRevealedBitsSurviveCompact(t *testing.T) {
	tr := NewTracker(WithMechanism(core.Popularity{}))
	threads := []*Thread{tr.NewThread("a"), tr.NewThread("b"), tr.NewThread("c")}
	objects := make([]*Object, 70) // past one bitset word
	for i := range objects {
		objects[i] = tr.NewObject("o")
	}
	touch := func() {
		for i, o := range objects {
			threads[i%len(threads)].Write(o, nil)
			threads[(i+1)%len(threads)].Read(o, nil)
		}
	}
	touch()
	edges := tr.cover.Load().Graph().Edges()
	if _, _, err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	width := tr.Size()
	cover := tr.cover.Load()
	for i, o := range objects {
		for _, th := range []*Thread{threads[i%len(threads)], threads[(i+1)%len(threads)]} {
			if !revealedBit(th, o.id) {
				t.Fatalf("thread %d: bit for object %d cleared by Compact", th.id, o.id)
			}
			// The set bit routes observe to Lookup; its answer must cover
			// the edge at the compacted width.
			thrIdx, objIdx, w := th.observe(o.id)
			if thrIdx < 0 && objIdx < 0 {
				t.Fatalf("edge (%d,%d) uncovered after Compact", th.id, o.id)
			}
			if lt, lo, lw := cover.Lookup(th.id, o.id); lt != thrIdx || lo != objIdx || lw != w || w != width {
				t.Fatalf("edge (%d,%d): observe (%d,%d,%d), Lookup (%d,%d,%d), width %d",
					th.id, o.id, thrIdx, objIdx, w, lt, lo, lw, width)
			}
		}
	}
	touch()
	if got := tr.Size(); got != width {
		t.Fatalf("re-touching revealed edges grew the width %d → %d", width, got)
	}
	if got := tr.cover.Load().Graph().Edges(); got != edges {
		t.Fatalf("re-touching revealed edges changed the graph: %d → %d edges", edges, got)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if err := checkRevealedBits(tr); err != nil {
		t.Fatal(err)
	}
	validateEpochs(t, tr)
}

// TestRevealedBitsAfterReopen: a reopened tracker's Threads start with
// empty bitsets, so their first touch of each recovered edge takes the
// slow path — which must find the edge already present, add no component,
// and yield exactly the stamps a tracker that never restarted gives.
func TestRevealedBitsAfterReopen(t *testing.T) {
	const nThreads, nObjects = 3, 5
	run := func(tr *Tracker, threads []*Thread, objects []*Object) []vclock.Vector {
		var out []vclock.Vector
		for r := 0; r < 4; r++ {
			for i, th := range threads {
				out = append(out, th.Write(objects[(r+i)%nObjects], nil).Vector())
			}
		}
		return out
	}
	register := func(tr *Tracker) ([]*Thread, []*Object) {
		threads := make([]*Thread, nThreads)
		for i := range threads {
			threads[i] = tr.NewThread(fmt.Sprintf("t%d", i))
		}
		objects := make([]*Object, nObjects)
		for i := range objects {
			objects[i] = tr.NewObject(fmt.Sprintf("o%d", i))
		}
		return threads, objects
	}

	// The reference never restarts.
	ref := NewTracker()
	refThreads, refObjects := register(ref)
	run(ref, refThreads, refObjects)
	want := run(ref, refThreads, refObjects)

	dir := t.TempDir()
	tr, err := Open(dir, WithStore(Store{Spill: SpillPolicy{Dir: dir}}))
	if err != nil {
		t.Fatal(err)
	}
	threads, objects := register(tr)
	run(tr, threads, objects)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	comps, edges := re.Components(), re.cover.Load().Graph().Edges()
	for _, th := range re.Threads() {
		if len(th.revealed) != 0 {
			t.Fatalf("recovered thread %d starts with revealed bits", th.id)
		}
	}
	got := run(re, re.Threads(), re.Objects())
	if after := re.Components(); !reflect.DeepEqual(after, comps) {
		t.Fatalf("re-touching recovered edges changed the components %v → %v", comps, after)
	}
	if after := re.cover.Load().Graph().Edges(); after != edges {
		t.Fatalf("re-touching recovered edges changed the graph: %d → %d edges", edges, after)
	}
	if !reflect.DeepEqual(ref.Components(), comps) {
		t.Fatalf("recovered components %v, fresh tracker's %v", comps, ref.Components())
	}
	for i := range want {
		if got[i].Compare(want[i]) != vclock.Equal {
			t.Fatalf("resumed stamp %d = %v, fresh tracker's %v", i, got[i], want[i])
		}
	}
	if err := re.Err(); err != nil {
		t.Fatal(err)
	}
	if err := checkRevealedBits(re); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstTouch is a race stress (CI runs it under -race
// -count=3): many goroutines touch the same brand-new objects at once, so
// their slow-path reveals race each other and, under NaiveObjects, publish
// a generation per object while lock-free lookups read the previous one.
// Every commit must be covered, every revealed bit must name a graph edge,
// and the recorded computation must validate.
func TestConcurrentFirstTouch(t *testing.T) {
	for _, mech := range []core.Mechanism{core.NaiveObjects{}, core.Popularity{}} {
		t.Run(mech.Name(), func(t *testing.T) {
			tr := NewTracker(WithMechanism(mech))
			const nWorkers, rounds, perRound = 8, 12, 3
			threads := make([]*Thread, nWorkers)
			for i := range threads {
				threads[i] = tr.NewThread("w")
			}
			for r := 0; r < rounds; r++ {
				fresh := make([]*Object, perRound)
				for i := range fresh {
					fresh[i] = tr.NewObject("fresh")
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for w, th := range threads {
					wg.Add(1)
					go func(w int, th *Thread) {
						defer wg.Done()
						<-start
						for i := range fresh {
							o := fresh[(w+i)%perRound]
							if w%2 == 0 {
								th.Write(o, nil)
							} else {
								th.DoBatch(o, []event.Op{event.OpRead, event.OpWrite})
							}
						}
					}(w, th)
				}
				close(start)
				wg.Wait()
				if err := checkRevealedBits(tr); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
			if pending, width := tr.reclaim.pending(), tr.Size(); pending > width {
				t.Fatalf("%d limbo entries, want at most width %d", pending, width)
			}
			if _, ok := mech.(core.NaiveObjects); ok && tr.Size() != rounds*perRound {
				t.Fatalf("naive/objects width %d, want one component per object (%d)", tr.Size(), rounds*perRound)
			}
			trace, stamps := tr.Snapshot()
			if err := clock.Validate(trace, stamps, "first-touch"); err != nil {
				t.Fatal(err)
			}
		})
	}
}
