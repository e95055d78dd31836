package core

import (
	"sync"
	"sync/atomic"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/event"
)

// SharedCover makes a CoverTracker safe for concurrent revealers. It is the
// component-discovery path of the live tracker (package track), which knows
// per thread which edges it has revealed (only thread t creates edges
// (t, ·)) and so picks one of two entry points:
//
//   - Lookup, for a revealed edge — the steady state: the tick plan of the
//     §III-C update rule (both endpoints' component indices and the clock
//     width) from an immutable generation behind one atomic pointer, with
//     no lock and no read-modify-write on a shared cache line.
//   - Reveal, for a first touch: CoverTracker.Reveal under the mutex, in
//     O(1), and a new generation only if that added a component — at most
//     width times, at O(width) each. Components are append-only (§IV), so
//     a reader on the previous generation is merely one component behind.
//
// Superseded generations are immutable and safe to read forever; an
// optional retire hook (OnRetire) hands each one to the caller so its
// release can be tracked through epoch-based reclamation instead of
// vanishing silently into the garbage collector.
type SharedCover struct {
	// gen is the current immutable generation; never nil after
	// NewSharedCover. It always reflects every component of ct.
	gen atomic.Pointer[coverGen]
	// mu serializes revealers and the read-only accessors that walk the
	// underlying CoverTracker directly (Graph, Mechanism, Components).
	mu sync.Mutex
	ct *CoverTracker
	// retire, when set, receives each superseded generation after its
	// replacement is published.
	retire func(old any)
}

// coverGen is one immutable snapshot of the component set: per endpoint
// ID, the component index, plus the clock width. The tables extend only to
// the largest component ID on each side; any ID past the end, like a -1
// entry, is not a component, so a new thread or object never forces a
// table to grow. Readers hold a generation only while resolving one tick
// plan; it is never mutated after publication.
type coverGen struct {
	thrIdx []int
	objIdx []int
	width  int
}

// plan returns the component indices of t and o (-1 when not a component)
// and the clock width.
func (g *coverGen) plan(t event.ThreadID, o event.ObjectID) (thrIdx, objIdx, width int) {
	thrIdx, objIdx = -1, -1
	if int(t) < len(g.thrIdx) {
		thrIdx = g.thrIdx[t]
	}
	if int(o) < len(g.objIdx) {
		objIdx = g.objIdx[o]
	}
	return thrIdx, objIdx, g.width
}

// NewSharedCover wraps ct for concurrent use. The SharedCover owns ct
// afterwards; callers must not keep revealing through ct directly.
func NewSharedCover(ct *CoverTracker) *SharedCover {
	s := &SharedCover{ct: ct}
	s.gen.Store(s.buildLocked())
	return s
}

// OnRetire sets the hook that receives each superseded generation (an
// opaque immutable value) once its replacement is published. Set it before
// the cover is shared; the hook runs on whichever goroutine revealed the
// component-adding edge, outside the cover's mutex.
func (s *SharedCover) OnRetire(f func(old any)) { s.retire = f }

// Lookup returns the tick plan for an event on an already revealed edge
// (t, o): the component indices of thread t and object o (-1 when the
// endpoint is not a component) and the current clock width. Lock-free.
// The answer is only meaningful for an edge the cover's graph already
// holds (one it was seeded with, or one a Reveal has returned from) — the
// cover invariant then guarantees at least one index is non-negative; for
// any other edge use Reveal.
func (s *SharedCover) Lookup(t event.ThreadID, o event.ObjectID) (thrIdx, objIdx, width int) {
	return s.gen.Load().plan(t, o)
}

// Reveal records the edge (t, o), choosing a component through the
// mechanism if the edge is new and uncovered, and returns its tick plan as
// Lookup does. Revealing an edge that is already present is harmless (it
// adds nothing), so racing or repeated reveals of one edge coalesce.
func (s *SharedCover) Reveal(t event.ThreadID, o event.ObjectID) (thrIdx, objIdx, width int) {
	s.mu.Lock()
	g := s.gen.Load()
	var old *coverGen
	if _, added := s.ct.Reveal(t, o); added {
		old, g = g, s.buildLocked()
		s.gen.Store(g)
	}
	s.mu.Unlock()
	if old != nil && s.retire != nil {
		s.retire(old)
	}
	return g.plan(t, o)
}

// buildLocked snapshots the component set into a fresh immutable
// generation, in O(width + largest component ID). The caller holds s.mu
// (or is the constructor).
func (s *SharedCover) buildLocked() *coverGen {
	comps := s.ct.comps.list
	maxT, maxO := -1, -1
	for _, c := range comps {
		if c.Side == bipartite.Threads {
			maxT = max(maxT, c.ID)
		} else {
			maxO = max(maxO, c.ID)
		}
	}
	g := &coverGen{thrIdx: make([]int, maxT+1), objIdx: make([]int, maxO+1), width: len(comps)}
	for i := range g.thrIdx {
		g.thrIdx[i] = -1
	}
	for i := range g.objIdx {
		g.objIdx[i] = -1
	}
	for i, c := range comps {
		if c.Side == bipartite.Threads {
			g.thrIdx[c.ID] = i
		} else {
			g.objIdx[c.ID] = i
		}
	}
	return g
}

// Size returns the current vector-clock size. Lock-free.
func (s *SharedCover) Size() int { return s.gen.Load().width }

// Components returns a copy of the current component set.
func (s *SharedCover) Components() []Component {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Components().Components()
}

// ComponentsString renders the component set (for error messages).
func (s *SharedCover) ComponentsString() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Components().String()
}

// Graph returns the revealed thread–object graph. The graph is shared, not
// copied: callers must quiesce all revealers first (the live tracker calls
// this only under its compaction barrier).
func (s *SharedCover) Graph() *bipartite.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Graph()
}

// Mechanism returns the driving mechanism.
func (s *SharedCover) Mechanism() Mechanism {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Mechanism()
}
