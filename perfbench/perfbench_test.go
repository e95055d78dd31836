package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mixedclock/internal/event"
)

// toy shrinks a workload so a whole run takes a fraction of a second.
func toy(name string) spec {
	sp := specs[name]
	sp.threads, sp.warmOps = 8, 200
	sp.objects = min(sp.objects, 64)
	sp.perThread = min(sp.perThread, 4)
	if sp.roundOps > 0 {
		sp.roundOps = 2_000
	}
	if sp.newEvery > 0 {
		sp.newEvery = 50
	}
	if sp.paced() {
		sp.rate = 5_000
	}
	return sp
}

func toyConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, spec: toy(name), seed: 5, seconds: 0.3, trace: trace,
		dataDir: t.TempDir(), minRounds: 2}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestWorkloadsAtToySize runs every workload, untraced and traced, the way
// --workload all does, and checks that each passes its output checks and
// reports exactly the metrics BENCHMARK.json declares, with the declared
// units.
func TestWorkloadsAtToySize(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadOrder) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloadOrder)
	}
	for _, trace := range []bool{false, true} {
		var cfgs []config
		for _, name := range names {
			cfgs = append(cfgs, toyConfig(t, name, trace))
		}
		res, err := runAll(cfgs, io.Discard)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
		}
		declared := bj.EndToEnd
		if trace {
			declared = bj.PerLayer
		}
		if len(res.Metrics) != len(names)*len(declared) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d per workload", trace, len(res.Metrics), len(declared))
		}
		for _, name := range names {
			for _, m := range declared {
				got, ok := res.Metrics[name+"."+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, declared unit %s", name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestLayerSeparation pins the design: reveals are most of commit time on
// discovery and absent on the other two; only the durable workload seals
// and lags a monitor.
func TestLayerSeparation(t *testing.T) {
	for _, name := range []string{"mem-local", "discovery", "durable-paced"} {
		res, err := run(toyConfig(t, name, true), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		revealed := m["core.reveal.count"].Value > 0
		if revealed != (name == "discovery") {
			t.Errorf("%s: core.reveal.count = %v", name, m["core.reveal.count"].Value)
		}
		lagged := m["track.monitor.lag_events.max"].Value > 0
		if lagged != (name == "durable-paced") {
			t.Errorf("%s: track.monitor.lag_events.max = %v", name, m["track.monitor.lag_events.max"].Value)
		}
		if name != "durable-paced" && m["track.seal.count"].Value != 0 {
			t.Errorf("%s: track.seal.count = %v, want 0", name, m["track.seal.count"].Value)
		}
	}
}

// TestSpansFile checks that a traced run writes its spans: every commit,
// named for its layer, and the calls timed into each layer.
func TestSpansFile(t *testing.T) {
	for name, want := range map[string][]string{
		"discovery":     {"core.reveal", "track.commit", "track.warmup", "check.stream"},
		"durable-paced": {"track.commit", "track.open", "track.monitor.sync", "track.close", "track.reopen", "check.stream"},
	} {
		cfg := toyConfig(t, name, true)
		if _, err := run(cfg, io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(cfg.dataDir, "spans-"+name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var l spanLine
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				t.Fatalf("%s: span line %q: %v", name, line, err)
			}
			seen[l.Name]++
		}
		for _, n := range want {
			if seen[n] == 0 {
				t.Errorf("%s: no %s span among %v", name, n, seen)
			}
		}
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	sp := specs["discovery"]
	a, b := generate(sp, 9, 5_000), generate(sp, 9, 5_000)
	if a.digest() != b.digest() || !slices.Equal(a.edges, b.edges) {
		t.Fatal("the same seed generated different inputs")
	}
	if c := generate(sp, 10, 5_000); c.digest() == a.digest() {
		t.Fatal("different seeds generated the same inputs")
	}
	if len(a.edges) <= sp.threads*sp.perThread {
		t.Fatalf("discovery reveals only %d edges", len(a.edges))
	}
}

// TestChecksCatchCorruption proves the checks have teeth: a run whose
// history has one stamp corrupted, or one event dropped, fails.
func TestChecksCatchCorruption(t *testing.T) {
	cfg := toyConfig(t, "mem-local", false)
	in := generate(cfg.spec, cfg.seed, cfg.spec.roundOps)
	events := len(in.reveal) + len(in.warmup[0]) + len(in.warmup[1]) + in.ops()
	// Round 0's checker samples windows starting at these indices.
	victim := sampleAnchors(events, cfg.seed)[0]
	cases := map[string]struct {
		mutate func(e event.Event, v []uint64) bool
		want   string
	}{
		"corrupted stamp": {
			mutate: func(e event.Event, v []uint64) bool {
				if e.Index == victim {
					for i := range v {
						v[i] = ^uint64(0)
					}
				}
				return false
			},
			want: "Theorem 2",
		},
		"dropped event": {
			mutate: func(e event.Event, v []uint64) bool { return e.Index == victim },
			want:   "was due",
		},
	}
	for name, c := range cases {
		cfg.mutate = c.mutate
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: run passed its checks", name)
			continue
		}
		if !slices.ContainsFunc(res.failures, func(f string) bool { return strings.Contains(f, c.want) }) {
			t.Errorf("%s: failures %q mention no %q", name, res.failures, c.want)
		}
	}
}
