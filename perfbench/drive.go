package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mixedclock/internal/event"
	"mixedclock/internal/track"
)

// stallThreshold is how slow a traced commit must be to count as a seal
// stall, when Stats().Seals also advanced across it.
const stallThreshold = time.Millisecond

// streamCheckEvery is how often an in-memory round streams its whole
// history through the checker: streaming materializes every stamp and
// costs more than the measured phase, so rounds in between check only the
// event count and the width. Durable rounds always stream (from disk).
const streamCheckEvery = 3

// sampleEvery is the cadence of the RSS and monitor-lag sampler.
const sampleEvery = 20 * time.Millisecond

// store is the storage configuration durable rounds open their tracker
// with: the policies loadgen arms for `mvc spam -store`.
var store = track.Store{
	Spill:   track.SpillPolicy{SealEvents: 50_000},
	Compact: track.CompactPolicy{MaxSegments: 12},
	Retain:  track.RetainPolicy{MaxBytes: 512 << 20},
}

// monitorPolicy is the live monitor durable rounds attach, as loadgen's.
var monitorPolicy = track.MonitorPolicy{Window: 128}

// span is one timed call into a layer, recorded by the benchmark around
// the call. Per-operation commit spans are kept columnar in workerResult
// instead, since there are millions of them.
type span struct {
	name   string
	worker int // -1 when the benchmark's main goroutine made the call
	// start is measured from the run's start; round is the enclosing
	// round, the span's parent.
	start, dur time.Duration
	round      int
}

// workerResult is one worker goroutine's record of a measured phase,
// indexed by stream position. lat is the op's latency (from its due time
// when paced), svc its service time (issue to completion) and lag how late
// the pacer issued it; a registration's or failed op's lat and svc are -1.
// stalls are kept only when traced. The slices are reused from round to
// round, so the benchmark's own memory does not grow with the number of
// rounds a run fits in.
type workerResult struct {
	lat, svc, lag, start []int64
	stalls               []span
	failed               int
	panicked             any
}

// reset readies the record for a stream of n ops.
func (d *workerResult) reset(n int) {
	grow := func(s []int64) []int64 {
		if cap(s) < n {
			return make([]int64, n)
		}
		return s[:n]
	}
	d.lat, d.svc, d.lag, d.start = grow(d.lat), grow(d.svc), grow(d.lag), grow(d.start)
	d.stalls, d.failed, d.panicked = d.stalls[:0], 0, nil
}

// round is the outcome of one fresh tracker taken through set-up, the
// measured phase and the output checks.
type round struct {
	index   int
	traced  bool
	setup   time.Duration
	elapsed time.Duration
	// measuredStart is when the measured phase began, from the run's start.
	measuredStart time.Duration
	ops           int
	failed        int
	width         int
	rssPeak       int64
	summary
	// before and after bracket the measured phase.
	before, after track.TrackerStats
	spans         []span
	monLag        []int
	// Durable rounds only.
	drain, reopen time.Duration
	backlog       int
	closed        track.TrackerStats
	diskBytes     int64
	// failures lists the output checks this round failed.
	failures []string
}

// roundEnv is what every round of a run shares.
type roundEnv struct {
	in      *inputs
	seed    int64
	dataDir string
	// base is the run's start, the origin of every span.
	base time.Time
	// widthOpt is the König optimum of the generated edge set.
	widthOpt int
	// mutate, when set, sits between the tracker's stream and the
	// checker; tests use it to corrupt outputs.
	mutate func(e event.Event, v []uint64) (drop bool)
	// res holds each worker's per-op record of the current round.
	res [workers]workerResult
	// lat holds the current round's op latencies; commit and lag pool the
	// traced rounds' commits on revealed edges and pacer lag over the run.
	lat, commit, lag hist
	// spans, set in traced runs, receives every round's layer spans and
	// the first traced round's per-op spans.
	spans *spanWriter
}

// rig is a tracker set up for a round: constructed, registered, every
// set-up edge revealed and the warm-up pass run.
type rig struct {
	tr      *track.Tracker
	mon     *track.Monitor // durable only
	dir     string         // durable only
	threads []*track.Thread
	objects []*track.Object
}

// setup builds round k's rig and returns it with the time set-up took.
func setup(env *roundEnv, r *round) (*rig, time.Duration, error) {
	in, sp := env.in, env.in.spec
	start := time.Now()
	g := &rig{}
	if sp.durable {
		g.dir = filepath.Join(env.dataDir, fmt.Sprintf("round%d", r.index))
		if err := os.RemoveAll(g.dir); err != nil {
			return nil, 0, fmt.Errorf("clearing %s: %w", g.dir, err)
		}
		t0 := time.Now()
		var err error
		if g.tr, err = track.Open(g.dir, track.WithStore(store)); err != nil {
			return nil, 0, fmt.Errorf("opening store: %w", err)
		}
		r.span(env, "track.open", t0)
		g.mon = g.tr.NewMonitor(monitorPolicy)
	} else {
		g.tr = track.NewTracker()
	}
	g.threads = make([]*track.Thread, sp.threads)
	for i := range g.threads {
		g.threads[i] = g.tr.NewThread("t" + strconv.Itoa(i))
	}
	g.objects = make([]*track.Object, in.objects)
	for i := 0; i < sp.objects; i++ {
		g.objects[i] = g.tr.NewObject("o" + strconv.Itoa(i))
	}
	t0 := time.Now()
	for _, o := range in.reveal {
		g.threads[o.thread].Do(g.objects[o.obj], opOf(o.kind), nil)
	}
	var wg sync.WaitGroup
	for d := range in.warmup {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range in.warmup[d] {
				g.threads[o.thread].Do(g.objects[o.obj], opOf(o.kind), nil)
			}
		}()
	}
	wg.Wait()
	r.span(env, "track.warmup", t0)
	return g, time.Since(start), nil
}

// setupOnly times one more set-up for setup_s, then tears the rig down.
func setupOnly(env *roundEnv, k int) (time.Duration, error) {
	r := &round{index: k}
	g, d, err := setup(env, r)
	if err != nil {
		return 0, err
	}
	if g.mon != nil {
		g.mon.Close()
	}
	if err := g.tr.Close(); err != nil {
		return 0, fmt.Errorf("closing set-up trial: %w", err)
	}
	return d, os.RemoveAll(g.dir)
}

// runRound takes one fresh tracker through the round.
func runRound(env *roundEnv, k int, traced bool) (*round, error) {
	in, sp := env.in, env.in.spec
	r := &round{index: k, traced: traced}
	g, d, err := setup(env, r)
	if err != nil {
		return nil, err
	}
	r.setup = d
	tr, mon, dir, threads, objects := g.tr, g.mon, g.dir, g.threads, g.objects

	r.before = tr.Stats()
	stopSampler := r.sample(tr, mon, traced)
	start := time.Now()
	r.measuredStart = start.Sub(env.base)
	var wg sync.WaitGroup
	for g := range env.res {
		res := &env.res[g]
		res.reset(len(in.stream[g]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(tr, threads, objects, in.stream[g], g, sp.rate, start, traced, res)
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	stopSampler()
	r.width = tr.Size()
	r.after = tr.Stats()
	r.span(env, "measured", start)
	for g := range env.res {
		res := &env.res[g]
		r.failed += res.failed
		for _, s := range res.stalls {
			s.start += r.measuredStart
			s.round = k
			r.spans = append(r.spans, s)
		}
		if res.panicked != nil {
			r.fail("worker %d panicked: %v", g, res.panicked)
		}
	}
	r.summarize(env)

	ids := make([]int, len(objects))
	for i, o := range objects {
		ids[i] = int(o.ID())
	}
	want := len(in.reveal) + len(in.warmup[0]) + len(in.warmup[1]) + r.ops
	if got := tr.Events(); got != want {
		r.fail("tracker holds %d events, %d operations were issued", got, want)
	}
	if !sp.durable {
		if k%streamCheckEvery == 0 {
			r.check(env, tr, ids, want)
		} else if opt := env.widthOpt; r.width < opt {
			r.fail("clock width %d is below the König optimum %d", r.width, opt)
		}
		return r, nil
	}

	// The drain clock starts before Stats, which waits for a replay the
	// monitor goroutine has in flight: that wait is part of catching up.
	t0 := time.Now()
	r.backlog = tr.Events() - mon.Stats().Consumed
	if err := mon.Sync(); err != nil {
		r.fail("monitor sync: %v", err)
	}
	r.drain = r.span(env, "track.monitor.sync", t0)
	if ms := mon.Stats(); ms.Consumed != want {
		r.fail("monitor consumed %d of %d events", ms.Consumed, want)
	}
	mon.Close()
	t0 = time.Now()
	if err := tr.Close(); err != nil {
		r.fail("close: %v", err)
	}
	r.span(env, "track.close", t0)
	r.closed = tr.Stats()
	if r.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	t0 = time.Now()
	re, err := track.Open(dir, track.WithStore(store))
	if err != nil {
		r.fail("reopen: %v", err)
		return r, os.RemoveAll(dir)
	}
	r.reopen = r.span(env, "track.reopen", t0)
	rec := re.Recovery()
	switch {
	case rec == nil:
		r.fail("reopen reported no recovery")
	case len(rec.Quarantined) > 0:
		r.fail("reopen quarantined %v", rec.Quarantined)
	case rec.Events != want:
		r.fail("reopen resumes at index %d, %d events were committed", rec.Events, want)
	case !rec.CleanClose:
		r.fail("reopen did not see a clean close")
	}
	if h := re.Health(); h.Degraded || h.Err != nil {
		r.fail("reopened tracker unhealthy: degraded=%v err=%v", h.Degraded, h.Err)
	}
	r.check(env, re, ids, want)
	if err := re.Close(); err != nil {
		r.fail("closing reopened tracker: %v", err)
	}
	return r, os.RemoveAll(dir)
}

// drive is one worker goroutine's measured loop over its stream: closed
// loop when rate is 0, otherwise open loop with op i of goroutine g due at
// (i*workers+g)/rate after start. A panic in Do, or a failed pacer wait,
// ends the stream and counts every op not completed as failed.
func drive(tr *track.Tracker, threads []*track.Thread, objects []*track.Object, stream []op,
	g int, rate float64, start time.Time, traced bool, res *workerResult) {
	i := 0
	abandon := func(cause any) {
		res.panicked = cause
		for ; i < len(stream); i++ {
			if stream[i].kind != kindRegister {
				res.failed++
			}
			res.lat[i], res.svc[i] = -1, -1
		}
	}
	defer func() {
		if p := recover(); p != nil {
			abandon(p)
		}
	}()
	var pacer *sleeper
	var interval float64
	if rate > 0 {
		var err error
		if pacer, err = newSleeper(); err != nil {
			abandon(err)
			return
		}
		defer pacer.Close()
		interval = float64(time.Second) / rate
	}
	var end time.Duration
	for ; i < len(stream); i++ {
		o := stream[i]
		if o.kind == kindRegister {
			objects[o.obj] = tr.NewObject("n" + strconv.Itoa(int(o.obj)))
			res.lat[i], res.svc[i] = -1, -1
			continue
		}
		issue := time.Since(start)
		due, ready := issue, issue
		if rate > 0 {
			// The op is ready when it is due and the previous one is
			// done; lag is how late the pacer issued it after that.
			due = time.Duration(float64(i*workers+g) * interval)
			ready = max(due, end)
			if wait := due - issue; wait > 0 {
				if err := pacer.sleep(wait); err != nil {
					abandon(err)
					return
				}
				issue = time.Since(start)
			}
		}
		// A traced commit reads Stats().Seals just before Do, and that read
		// is part of the commit's time: it is what trace.overhead measures.
		// A read that waits out a seal already in progress sees the seal
		// done, so that seal's stall is recorded on the commits that were
		// inside Do when it began, the one that ran it among them.
		var seals int64
		if traced {
			seals = tr.Stats().Seals
		}
		threads[o.thread].Do(objects[o.obj], opOf(o.kind), nil)
		end = time.Since(start)
		res.lat[i] = int64(end - due)
		res.svc[i] = int64(end - issue)
		res.lag[i] = int64(issue - ready)
		res.start[i] = int64(issue)
		if traced && end-issue > stallThreshold && tr.Stats().Seals > seals {
			res.stalls = append(res.stalls, span{name: "track.seal.stall", worker: g, start: issue, dur: end - issue})
		}
	}
}

func opOf(kind uint8) event.Op {
	if kind == kindRead {
		return event.OpRead
	}
	return event.OpWrite
}

// sample starts the measured phase's sampler: resident memory always, and
// the monitor's lag behind commits when traced. The returned function
// stops it, waits for it and takes a final RSS reading.
func (r *round) sample(tr *track.Tracker, mon *track.Monitor, traced bool) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak atomic.Int64
	take := func() {
		if v := rss(); v > peak.Load() {
			peak.Store(v)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				take()
				if traced && mon != nil {
					r.monLag = append(r.monLag, tr.Events()-mon.Stats().Consumed)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		take()
		r.rssPeak = peak.Load()
	}
}

// rss is the process's resident set size in bytes, from /proc where it
// exists and otherwise from the Go runtime's own accounting.
func rss() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return n, nil
}

// span records a call into a layer that started at t0 and returns its
// duration.
func (r *round) span(env *roundEnv, name string, t0 time.Time) time.Duration {
	d := time.Since(t0)
	r.spans = append(r.spans, span{name: name, worker: -1, start: t0.Sub(env.base), dur: d, round: r.index})
	return d
}

func (r *round) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf("round %d: ", r.index)+fmt.Sprintf(format, args...))
}

// freeRound returns the finished round's memory to the OS, so the next
// round's resident-memory peak starts from the same floor.
func freeRound() {
	runtime.GC()
	debug.FreeOSMemory()
}
