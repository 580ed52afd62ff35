package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"ppt/internal/exp"
)

// TestDriftGuard proves the benchmark measures what pptsim computes: at a
// small flow count, every workload's cells reproduce the rows
// exp.RunByID reports for the experiment the workload is taken from.
// The ls-websearch-2w case also proves that its 2-worker engine gives
// the same digests as ls-websearch.
func TestDriftGuard(t *testing.T) {
	const seed = 3
	cases := []struct {
		exp, workload string
		flows         int
	}{
		{"fig12", "ls-websearch", 30},
		{"fig12", "ls-websearch-2w", 30},
		// Past one 64Ki-record spill chunk, so the spill path runs.
		{"scale1M", "ls-memcached-spill", 70_000},
		{"fig10", "star-incast", 60},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			res, err := exp.RunByID(c.exp, exp.Options{
				Flows: c.flows, Seed: seed, Schemes: []string{"ppt", "dctcp"}, Parallel: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			rows := map[string]exp.Row{}
			for _, row := range res.Rows {
				rows[row.Label] = row
			}
			w := findWorkload(c.workload)
			b := newBench(w, []int64{seed}, c.flows)
			for i, sc := range schemes {
				row, ok := rows[sc.name]
				if !ok || row.Sum.Flows == 0 {
					t.Fatalf("%s has no %s row: %v", c.exp, sc.name, res.Notes)
				}
				r, ok := b.run(i, b.spec(i, 0, w.shards), nil)
				if !ok {
					t.Fatalf("cell failed: %v", b.problems)
				}
				if r.sum != row.Sum {
					t.Errorf("%s: benchmark cell %+v, %s row %+v", sc.name, r.sum, c.exp, row.Sum)
				}
				if want, ok := row.Extra["spilled_records"]; ok && float64(r.k.spilled) != want {
					t.Errorf("%s: spilled %d records, %s row %g", sc.name, r.k.spilled, c.exp, want)
				}
			}
		})
	}
}

// TestRunChecks runs each workload's warm-up, an untraced pass on each
// of two inputs and one traced pass at a small size: every check
// passes, every metric gets a value, the inputs differ, and set-up
// trials stop before the first event.
func TestRunChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			flows := 40
			if w.spill > 0 {
				flows = 2000
			}
			b := newBench(w, inputSeeds(5, 2), flows)
			warm := b.warmUp()
			untraced := b.pass(0, nil)
			for i, rs := range b.pass(1, nil) {
				untraced[i] = append(untraced[i], rs...)
			}
			traced := b.pass(0, newTracer())
			if b.failed != 0 || len(b.problems) > 0 {
				t.Fatalf("failed %d of %d flows: %v", b.failed, b.attempted, b.problems)
			}
			for i, refs := range b.ref {
				if refs[0] == refs[1] {
					t.Errorf("%s: both inputs have digest %s", schemes[i].name, refs[0])
				}
			}
			for name, v := range endToEnd(untraced, make([][]time.Duration, len(schemes))) {
				if !(v > 0) {
					t.Errorf("%s = %g", name, v)
				}
			}
			for i := range untraced {
				untraced[i] = untraced[i][:1] // perLayer takes one input
			}
			m := perLayer(warm, untraced, traced)
			for _, d := range perLayerMetrics {
				if _, ok := m[d.name]; !ok {
					t.Errorf("no value for %s", d.name)
				}
			}
			if m["workload.flows"] != float64(flows*len(schemes)) {
				t.Errorf("workload.flows = %g", m["workload.flows"])
			}
			if m["trace.samples"] > 0 && m["sim.cpu_share"]+m["netsim.cpu_share"] == 0 {
				t.Errorf("profile attributes nothing to the engine: %v", m)
			}
			d, err := setupTrial(b.spec(0, 0, w.shards))
			if err != nil || d <= 0 {
				t.Errorf("setupTrial = %v, %v", d, err)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ppt/internal/netsim.(*Port).Enqueue":                                 "netsim",
		"ppt/internal/sim.(*Scheduler).RunUntil":                              "sim",
		"ppt/internal/transport.RunSource":                                    "transport",
		"ppt/internal/transport/ppt.(*sender).onAck":                          "transport.ppt",
		"ppt/internal/transport.(*Pool[go.shape.*ppt/internal/netsim.X]).Get": "transport",
		"ppt/internal/bufaware.AppModel.FirstCall":                            "workload",
		"runtime.mallocgc":                                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                        "runtime",
		"main.runCell": "other",
		"":             "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the binary in step: every
// listed workload exists, and the metrics are the ones the binary
// prints, in order, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the binary %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, binary %s %s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
