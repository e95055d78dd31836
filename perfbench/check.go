package main

import (
	"fmt"
	"math/rand"
	"time"

	"mixedclock/internal/baseline"
	"mixedclock/internal/bipartite"
	"mixedclock/internal/core"
	"mixedclock/internal/event"
	"mixedclock/internal/track"
	"mixedclock/internal/vclock"
)

// Theorem-2 sample shape: windows of consecutive events (near pairs, where
// concurrency lives) at seeded anchors, plus seeded pairs across windows.
const (
	sampleWindows = 48
	sampleWidth   = 24
	crossPairs    = 20_000
)

// sampled is one retained event: its mixed stamp from the tracker and the
// thread-based vector clock recomputed from the same trace.
type sampled struct {
	index         int
	mixed, thread vclock.Vector
}

// checker consumes a tracker's history as a StampSink and checks it
// against the generated inputs: every committed event arrives exactly
// once, the revealed edge set is the generated one, and on a seeded sample
// of event pairs the mixed stamps order events exactly as the thread-based
// vector clock does (Theorem 2: s → t ⇔ s.V < t.V).
type checker struct {
	want   int
	next   int
	epoch  int
	tc     *baseline.ThreadClock
	keep   map[int]bool
	kept   []sampled
	input  map[int]int // tracker object ID → input object index
	edges  map[[2]int]bool
	mutate func(e event.Event, v []uint64) bool
	errs   []string
}

func newChecker(threads int, ids []int, want int, seed int64) *checker {
	c := &checker{
		want:  want,
		tc:    baseline.NewThreadClock(threads, len(ids)),
		keep:  make(map[int]bool),
		input: make(map[int]int, len(ids)),
		edges: make(map[[2]int]bool),
	}
	for i, id := range ids {
		c.input[id] = i
	}
	for _, a := range sampleAnchors(want, seed) {
		for i := a; i < a+sampleWidth; i++ {
			c.keep[i] = true
		}
	}
	return c
}

// sampleAnchors draws the first index of each Theorem-2 sample window
// over a history of n events.
func sampleAnchors(n int, seed int64) []int {
	if n <= sampleWidth {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	anchors := make([]int, sampleWindows)
	for w := range anchors {
		anchors[w] = rng.Intn(n - sampleWidth)
	}
	return anchors
}

// ConsumeStamp implements track.StampSink.
func (c *checker) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	if c.mutate != nil {
		v = v.Clone()
		if c.mutate(e, v) {
			return nil
		}
	}
	if e.Index != c.next {
		c.errf("stream delivered event %d where %d was due", e.Index, c.next)
	}
	c.next = e.Index + 1
	if epoch != c.epoch {
		c.errf("event %d in epoch %d; the benchmark never compacts", e.Index, epoch)
		c.epoch = epoch
	}
	obj, ok := c.input[int(e.Object)]
	if !ok {
		c.errf("event %d names unknown object %d", e.Index, e.Object)
		return nil
	}
	c.edges[[2]int{int(e.Thread), obj}] = true
	tv := c.tc.Timestamp(e)
	if c.keep[e.Index] {
		c.kept = append(c.kept, sampled{index: e.Index, mixed: v.Clone(), thread: tv})
	}
	return nil
}

func (c *checker) errf(format string, args ...any) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// finish runs the checks that need the whole stream and returns every
// failure found.
func (c *checker) finish(edges [][2]int, seed int64) []string {
	if c.next != c.want {
		c.errf("stream ended at event %d, %d events were committed", c.next, c.want)
	}
	if len(c.edges) != len(edges) {
		c.errf("history reveals %d edges, the inputs generate %d", len(c.edges), len(edges))
	} else {
		for _, e := range edges {
			if !c.edges[e] {
				c.errf("generated edge %v missing from the history", e)
				break
			}
		}
	}
	bad, pairs := 0, 0
	verdict := func(a, b sampled) {
		pairs++
		if m, t := a.mixed.Compare(b.mixed), a.thread.Compare(b.thread); m != t {
			if bad++; bad == 1 {
				c.errf("Theorem 2: events %d and %d are %v by mixed stamp, %v by thread clock", a.index, b.index, m, t)
			}
		}
	}
	for i := range c.kept {
		for j := i + 1; j < len(c.kept) && c.kept[j].index < c.kept[i].index+sampleWidth; j++ {
			verdict(c.kept[i], c.kept[j])
		}
	}
	if n := len(c.kept); n > 1 {
		rng := rand.New(rand.NewSource(seed + 7))
		for p := 0; p < crossPairs; p++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i > j {
				i, j = j, i
			}
			if i != j {
				verdict(c.kept[i], c.kept[j])
			}
		}
	}
	if bad > 0 {
		c.errf("Theorem 2 fails on %d of %d sampled pairs", bad, pairs)
	}
	if len(c.kept) == 0 && c.want > sampleWidth {
		c.errf("no events sampled for the Theorem 2 check")
	}
	return c.errs
}

// check streams the tracker's whole history through a checker and records
// its failures, plus the width bound, on the round.
func (r *round) check(env *roundEnv, tr *track.Tracker, ids []int, want int) {
	t0 := time.Now()
	c := newChecker(env.in.spec.threads, ids, want, env.seed+int64(r.index))
	c.mutate = env.mutate
	if err := tr.Stream(c); err != nil {
		r.fail("streaming history: %v", err)
	}
	for _, f := range c.finish(env.in.edges, env.seed+int64(r.index)) {
		r.fail("%s", f)
	}
	if opt := env.widthOpt; r.width < opt {
		r.fail("clock width %d is below the König optimum %d", r.width, opt)
	}
	r.span(env, "check.stream", t0)
}

// widthOpt is the König optimum for the benchmark's own edge list: the
// size of the offline algorithm's minimum vertex cover.
func widthOpt(threads, objects int, edges [][2]int) int {
	g := bipartite.New(threads, objects)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return core.Analyze(g).VectorSize()
}
