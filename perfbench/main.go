// Command perfbench is the repository's benchmark. It drives the live
// tracker (internal/track) with one of three generated workloads, checks
// the tracker's output against the paper's Theorem 2, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) by name,
// with unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload mem-local --seed 1 --seconds 10 --trace 0
//
// Inputs come from --seed alone and are generated before any timing; their
// digest is printed so runs on two commits can be shown to have been fed
// identical work. A run replays the generated round against fresh trackers
// until --seconds of measured time are used; a failed check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"mixedclock/internal/event"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: mem-local, discovery, durable-paced, or all three in turn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.dataDir, "data", ".bench_build/perfbench-data", "directory durable rounds write their stores, and traced runs their spans, under")
	flag.Parse()
	cfg.trace = *trace == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	}
	var cfgs []config
	for _, name := range names {
		sp, ok := specs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			os.Exit(2)
		}
		c := cfg
		c.workload, c.spec = name, sp
		cfgs = append(cfgs, c)
	}
	res, err := runAll(cfgs, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// workloadOrder is the order --workload all runs the workloads in.
var workloadOrder = []string{"mem-local", "discovery", "durable-paced"}

// runAll runs each configured workload and prints its table and JSON line.
// With more than one it ends with a combined JSON line whose metric names
// are prefixed with the workload ("mem-local.ops_per_s").
func runAll(cfgs []config, w io.Writer) (*result, error) {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, cfg := range cfgs {
		res, err := run(cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		if err := res.print(w); err != nil {
			return nil, err
		}
		if len(cfgs) == 1 {
			return res, nil
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[cfg.workload+"."+name] = m
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return all, err
}

// config is one run's settings.
type config struct {
	workload string
	spec     spec
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string
	// minRounds overrides the run's minimum round count (tests).
	minRounds int
	mutate    func(e event.Event, v []uint64) bool
}

// A paced run splits --seconds into rounds of about pacedRound, and into at
// least minPacedRounds. A round holds three seals, and each seal's stall
// sets the latency tail of the ops due during it. Stalls vary from seal to
// seal, so lat_p99_us is the median of the rounds' p99s, which one slow
// seal moves little. Each round's resident-memory peak likewise depends on
// where the last GC fell.
const (
	pacedRound     = 4 * time.Second
	minPacedRounds = 3
)

// setupSamples is the fewest set-ups a run times for setup_s; a paced run
// adds set-up-only trials to reach it.
const setupSamples = 5

// result is the JSON object the run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	table    []row
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one metric as the human-readable table shows it.
type row struct {
	name, unit string
	value      float64
	samples    int
	// na marks a metric that does not apply to the workload; its value
	// is 0.
	na bool
}

// run executes the workload and gathers its metrics. Human-readable
// progress goes to w.
func run(cfg config, w io.Writer) (*result, error) {
	sp := cfg.spec
	// A closed-loop run fits as many rounds as --seconds allows; a paced
	// run splits --seconds into rounds of about pacedRound.
	roundOps := sp.roundOps
	rounds := 0
	if sp.paced() {
		rounds = max(minPacedRounds, int(math.Round(cfg.seconds/pacedRound.Seconds())))
		roundOps = pacedRoundOps(sp, time.Duration(cfg.seconds/float64(rounds)*float64(time.Second)))
	}
	in := generate(sp, cfg.seed, roundOps)
	env := &roundEnv{in: in, seed: cfg.seed, dataDir: cfg.dataDir, base: time.Now(), mutate: cfg.mutate}
	fmt.Fprintf(w, "workload %s  seed %d  inputs sha256:%s  threads %d  workers %d  ops/round %d  edges %d\n",
		sp.name, cfg.seed, in.digest(), sp.threads, workers, in.ops(), len(in.edges))

	t0 := time.Now()
	env.widthOpt = widthOpt(sp.threads, in.objects, in.edges)
	analyze := time.Since(t0)
	if cfg.trace {
		var err error
		if env.spans, err = newSpanWriter(spansPath(cfg)); err != nil {
			return nil, err
		}
		env.spans.write(span{name: "core.analyze", worker: -1, round: -1, start: t0.Sub(env.base), dur: analyze})
	}

	minRounds := 3
	if cfg.trace {
		minRounds = 4
	}
	if cfg.minRounds > 0 {
		minRounds = cfg.minRounds
	}
	var rs []*round
	var measured time.Duration
	for k := 0; ; k++ {
		if rounds > 0 && k == rounds || rounds == 0 && k >= minRounds && measured.Seconds() >= cfg.seconds {
			break
		}
		freeRound()
		r, err := runRound(env, k, cfg.trace && k%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		measured += r.elapsed
		rs = append(rs, r)
		if env.spans != nil {
			env.spans.round(env, r)
		}
		fmt.Fprintf(w, "round %d%s: setup %.3fs  measured %.3fs  %d ops  p50 %.4gus  p99 %.4gus  width %d  rss %.0f MB\n",
			k, map[bool]string{true: " (traced)"}[r.traced], r.setup.Seconds(), r.elapsed.Seconds(),
			r.ops, r.p50/1e3, r.p99/1e3, r.width, float64(r.rssPeak)/(1<<20))
	}
	var setups []float64
	for _, r := range rs {
		setups = append(setups, r.setup.Seconds())
	}
	for k := len(rs); len(setups) < setupSamples; k++ {
		freeRound()
		d, err := setupOnly(env, k)
		if err != nil {
			return nil, fmt.Errorf("set-up trial %d: %w", k, err)
		}
		setups = append(setups, d.Seconds())
	}
	if cfg.dataDir != "" && sp.durable {
		// Removing the shared parent only succeeds once it is empty; other
		// runs may be using it, so failure is expected and harmless.
		_ = os.Remove(cfg.dataDir)
	}

	res := &result{Metrics: map[string]metric{}}
	for _, r := range rs {
		res.Attempted += r.ops + r.failed
		res.Failed += r.failed + len(r.failures)
		res.failures = append(res.failures, r.failures...)
	}
	res.Correct = res.Failed == 0
	gated, other := endToEnd(env, rs, setups)
	out := gated
	if cfg.trace {
		out = append(perLayer(env, rs, analyze), other...)
		res.table = gated
	}
	res.table = append(res.table, out...)
	if !cfg.trace {
		res.table = append(res.table, other...)
	}
	for _, row := range out {
		res.Metrics[row.name] = metric{Value: row.value, Unit: row.unit}
	}
	if env.spans != nil {
		if err := env.spans.close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// print writes the metric table, any failed checks, and the JSON line.
func (res *result) print(w io.Writer) error {
	fmt.Fprintf(w, "%-32s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, r := range res.table {
		if r.na {
			fmt.Fprintf(w, "%-32s %16s  %-8s\n", r.name, "n/a", r.unit)
			continue
		}
		fmt.Fprintf(w, "%-32s %16.6g  %-8s %d\n", r.name, r.value, r.unit, r.samples)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "checks: %s (%d failed of %d attempted)\n",
		map[bool]string{true: "ok", false: "FAILED"}[res.Correct], res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
