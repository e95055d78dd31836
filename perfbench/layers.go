package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mixedclock/internal/track"
)

// summary is what a round keeps of its per-op records once the round is
// over; latencies also go into the run's histograms (roundEnv).
type summary struct {
	// late counts ops more than 1 ms past due, failed ops included.
	late int
	// p50 and p99 are the round's latency percentiles in nanoseconds.
	p50, p99 float64
	// capacity is ops per second of worker busy time: the throughput the
	// tracker sustained while it had work. It equals ops_per_s in a closed
	// loop and stays meaningful in an open one, whose ops_per_s is the
	// pacer's rate.
	capacity float64
	// Traced rounds only: service times of commits on never-seen edges,
	// and the split of commit time between those and the rest.
	reveal             []int64
	revealNs, commitNs int64
	commits            int
}

// summarize reduces the workers' per-op records to the round's summary,
// with the round's latency percentiles, and when traced adds the service
// time of commits on revealed edges and the pacer's lag to the run's
// histograms.
func (r *round) summarize(env *roundEnv) {
	var busy int64
	env.lat = hist{}
	for g := range env.res {
		d, stream := &env.res[g], env.in.stream[g]
		for i, l := range d.lat {
			if l < 0 {
				continue
			}
			r.ops++
			env.lat.add(l)
			if l > int64(time.Millisecond) {
				r.late++
			}
			s := d.svc[i]
			busy += s
			if !r.traced {
				continue
			}
			r.commitNs += s
			if stream[i].reveal {
				r.reveal = append(r.reveal, s)
				r.revealNs += s
			} else {
				r.commits++
				env.commit.add(s)
			}
			env.lag.add(d.lag[i])
		}
		r.late += d.failed
	}
	r.capacity = float64(r.ops) / (float64(busy) / float64(time.Second) / workers)
	r.p50, r.p99 = env.lat.quantile(0.50), env.lat.quantile(0.99)
}

// quantile is the nearest-rank q-quantile of sorted xs, 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// medianOf is the median over rounds of one per-round value.
func medianOf(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics: setup_s the median of every
// timed set-up, the rest the median over rounds (for the latency
// percentiles, of each round's percentile over its ops; for rss_peak_mb,
// of each round's peak). The gated
// rows are the ones BENCHMARK.json bounds: they apply to every workload and
// are never zero. The others are zero or undefined on some workload (a
// correct run has no errors; only the durable workload has a disk, a
// monitor and a reopen; only the paced one has due times), so they are
// shown in the table where they apply and carried in the traced JSON.
func endToEnd(env *roundEnv, rs []*round, setups []float64) (gated, other []row) {
	sp := env.in.spec
	ops, late, failed, attempted := 0, 0, 0, 0
	for _, r := range rs {
		ops += r.ops
		late += r.late
		failed += r.failed + len(r.failures)
		attempted += r.ops + r.failed
	}
	n := len(rs)
	gated = []row{
		{name: "setup_s", unit: "s", value: median(setups), samples: len(setups)},
		{name: "ops_per_s", unit: "1/s", value: medianOf(rs, func(r *round) float64 { return float64(r.ops) / r.elapsed.Seconds() }), samples: n},
		{name: "lat_p50_us", unit: "us", value: medianOf(rs, func(r *round) float64 { return r.p50 }) / 1e3, samples: ops},
		{name: "lat_p99_us", unit: "us", value: medianOf(rs, func(r *round) float64 { return r.p99 }) / 1e3, samples: ops},
		{name: "rss_peak_mb", unit: "MB", value: medianOf(rs, func(r *round) float64 { return float64(r.rssPeak) / (1 << 20) }), samples: n},
		{name: "width", unit: "count", value: medianOf(rs, func(r *round) float64 { return float64(r.width) }), samples: n},
	}
	frac := func(part int) float64 { return float64(part) / float64(max(attempted, 1)) }
	other = []row{
		{name: "error_frac", unit: "ratio", value: frac(failed), samples: attempted},
		{name: "late_frac", unit: "ratio", samples: attempted, na: !sp.paced()},
		{name: "disk_bytes_per_op", unit: "B", samples: n, na: !sp.durable},
		{name: "reopen_s", unit: "s", samples: n, na: !sp.durable},
		{name: "monitor_drain_s", unit: "s", samples: n, na: !sp.durable},
	}
	if sp.paced() {
		other[1].value = frac(late)
	}
	if sp.durable {
		other[2].value = medianOf(rs, func(r *round) float64 { return float64(r.diskBytes) / float64(r.closed.Events) })
		other[3].value = medianOf(rs, func(r *round) float64 { return r.reopen.Seconds() })
		other[4].value = medianOf(rs, func(r *round) float64 { return r.drain.Seconds() })
	}
	return gated, other
}

// perLayer computes the per-layer metrics from the traced rounds. Each is
// measured from outside the program: the benchmark times its own calls
// into the layer (per-op commits split by whether the generator knows the
// edge is new; slow commits across which Stats().Seals advanced), reads
// Stats() deltas around the measured phase, and samples the monitor's lag.
func perLayer(env *roundEnv, rs []*round, analyze time.Duration) []row {
	in := env.in
	var traced, untraced []*round
	var reveal, stalls, lagEvents []int64
	var revealNs, commitNs, stallNs int64
	for _, r := range rs {
		if !r.traced {
			untraced = append(untraced, r)
			continue
		}
		traced = append(traced, r)
		reveal = append(reveal, r.reveal...)
		revealNs += r.revealNs
		commitNs += r.commitNs
		for _, s := range r.spans {
			if s.name == "track.seal.stall" {
				stalls = append(stalls, int64(s.dur))
				stallNs += int64(s.dur)
			}
		}
		for _, l := range r.monLag {
			lagEvents = append(lagEvents, int64(l))
		}
	}
	for _, xs := range [][]int64{reveal, stalls, lagEvents} {
		slices.Sort(xs)
	}
	share := func(part int64) float64 {
		if commitNs == 0 {
			return 0
		}
		return float64(part) / float64(commitNs)
	}
	// The closed tracker's stats include the final seal and the lifecycle
	// work it set off; in-memory rounds end at the measured phase.
	end := func(r *round) *track.TrackerStats {
		if in.spec.durable {
			return &r.closed
		}
		return &r.after
	}
	perRound := func(f func(*round) float64) float64 { return medianOf(traced, f) }
	overhead := 0.0
	if len(traced) > 0 && len(untraced) > 0 {
		capacity := func(r *round) float64 { return r.capacity }
		overhead = medianOf(untraced, capacity)/medianOf(traced, capacity) - 1
	}
	n := len(traced)
	commits := 0
	for _, r := range traced {
		commits += r.commits
	}
	rows := []row{
		{name: "core.reveal.count", unit: "count", value: perRound(func(r *round) float64 { return float64(len(r.reveal)) }), samples: n},
		{name: "core.reveal_us.p50", unit: "us", value: quantile(reveal, 0.50) / 1e3, samples: len(reveal)},
		{name: "core.reveal_us.p99", unit: "us", value: quantile(reveal, 0.99) / 1e3, samples: len(reveal)},
		{name: "core.reveal.time_share", unit: "ratio", value: share(revealNs), samples: len(reveal) + commits},
		{name: "core.width_opt", unit: "count", value: float64(env.widthOpt), samples: 1},
		{name: "core.analyze_s", unit: "s", value: analyze.Seconds(), samples: 1},
		{name: "track.commit_us.p50", unit: "us", value: env.commit.quantile(0.50) / 1e3, samples: commits},
		{name: "track.commit_us.p99", unit: "us", value: env.commit.quantile(0.99) / 1e3, samples: commits},
		{name: "track.seal.count", unit: "count", value: perRound(func(r *round) float64 { return float64(r.after.Seals - r.before.Seals) }), samples: n},
		{name: "track.seal.stall_ms.p50", unit: "ms", value: quantile(stalls, 0.50) / 1e6, samples: len(stalls)},
		{name: "track.seal.stall_ms.max", unit: "ms", value: quantile(stalls, 1) / 1e6, samples: len(stalls)},
		{name: "track.seal.stall_share", unit: "ratio", value: share(stallNs), samples: len(stalls)},
		{name: "track.lifecycle.compactions", unit: "count", value: perRound(func(r *round) float64 { return float64(end(r).CompactionPasses - r.before.CompactionPasses) }), samples: n},
		{name: "track.lifecycle.retentions", unit: "count", value: perRound(func(r *round) float64 { return float64(end(r).RetentionPasses - r.before.RetentionPasses) }), samples: n},
		{name: "tlog.segments", unit: "count", value: perRound(func(r *round) float64 { return float64(end(r).Segments) }), samples: n},
		{name: "tlog.bytes_per_op", unit: "B", samples: n},
		{name: "track.monitor.lag_events.p50", unit: "count", value: quantile(lagEvents, 0.50), samples: len(lagEvents)},
		{name: "track.monitor.lag_events.max", unit: "count", value: quantile(lagEvents, 1), samples: len(lagEvents)},
		{name: "track.monitor.events_per_s", unit: "1/s", samples: n},
		{name: "gen.lag_us.p99", unit: "us", value: env.lag.quantile(0.99) / 1e3, samples: int(env.lag.n)},
		{name: "trace.overhead", unit: "ratio", value: overhead, samples: len(rs)},
	}
	if in.spec.durable {
		rows[15].value = perRound(func(r *round) float64 {
			return float64(r.closed.SpilledBytes) / float64(max(r.closed.SealedEvents, 1))
		})
		rows[18].value = perRound(func(r *round) float64 { return float64(r.backlog) / r.drain.Seconds() })
	}
	return rows
}

// spanWriter writes spans as JSON lines: the calls the benchmark timed
// into each layer in every round, and one per commit of the first traced
// round, named for the layer that dominates it. Later traced rounds' commits
// are left out, so the file holds one round's commits however many rounds
// the run fits. Spans are kept in memory for the round and written once it
// is over, outside the measured phase.
type spanWriter struct {
	f   *os.File
	bw  *bufio.Writer
	enc *json.Encoder
	err error
	// opsWritten is set once a traced round's per-op spans are written.
	opsWritten bool
}

// spansPath is where a traced run writes its spans.
func spansPath(cfg config) string {
	return filepath.Join(cfg.dataDir, "spans-"+cfg.workload+".jsonl")
}

// spanLine is one span as the writer emits it; Round is the parent span.
type spanLine struct {
	Name    string `json:"name"`
	Round   int    `json:"round"`
	Worker  int    `json:"worker"`
	Thread  int    `json:"thread,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

func newSpanWriter(path string) (*spanWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	return &spanWriter{f: f, bw: bw, enc: json.NewEncoder(bw)}, nil
}

func (w *spanWriter) write(s span) {
	w.line(spanLine{Name: s.name, Round: s.round, Worker: s.worker, StartNs: int64(s.start), DurNs: int64(s.dur)})
}

func (w *spanWriter) line(l spanLine) {
	if w.err == nil {
		w.err = w.enc.Encode(l)
	}
}

// round writes a finished round's layer spans and, when it is the first
// traced round, its per-op spans.
func (w *spanWriter) round(env *roundEnv, r *round) {
	for _, s := range r.spans {
		w.write(s)
	}
	if !r.traced || w.opsWritten {
		return
	}
	w.opsWritten = true
	for g := range env.res {
		d := &env.res[g]
		for i, o := range env.in.stream[g] {
			if d.svc[i] < 0 {
				continue
			}
			name := "track.commit"
			if o.reveal {
				name = "core.reveal"
			}
			w.line(spanLine{Name: name, Round: r.index, Worker: g, Thread: int(o.thread),
				StartNs: int64(r.measuredStart) + d.start[i], DurNs: d.svc[i]})
		}
	}
}

func (w *spanWriter) close() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if err := w.f.Close(); w.err == nil {
		w.err = err
	}
	if w.err != nil {
		return fmt.Errorf("writing spans: %w", w.err)
	}
	return nil
}
