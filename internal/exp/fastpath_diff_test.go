package exp

import (
	"math/rand"
	"testing"

	"ppt/internal/workload"
)

// TestFastPathDifferential is the randomized equivalence proof for the
// fused cut-through port pipeline (DESIGN.md §7.6): for randomly drawn
// (scheme, flows, load, seed) cells on the monolithic pooled fabrics —
// the testbed star and the dumbbell microbenchmark, where the fast path
// actually engages — a fused run and a -fastpath=off run must produce an
// identical summary and identical efficiency counters, while the fused
// run executes strictly fewer scheduler events. Partitioned fabrics are
// deliberately absent: they run fused whatever the flag says (see
// topo.LeafSpine), which TestShardedDifferential pins with its
// noFastPath alternative.
func TestFastPathDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many randomized simulation cells")
	}
	rng := rand.New(rand.NewSource(42))
	all := baseSchemes()
	schemes := []string{"ppt", "dctcp", "tcp10"}
	dists := []*workload.Dist{workload.WebSearch, workload.DataMining}
	fabs := []fabric{testbedFabric(), dumbbellFabric(8, 120_000)}

	var fusedEvents, classicEvents uint64
	trials := 4
	if raceEnabled {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		fab := fabs[trial%len(fabs)]
		spec := runSpec{
			fab:     fab,
			sc:      all[schemes[rng.Intn(len(schemes))]],
			dist:    dists[rng.Intn(len(dists))],
			pattern: workload.AllToAll{N: fab.hosts},
			load:    0.4 + 0.1*float64(rng.Intn(3)),
			flows:   100 + rng.Intn(200),
			seed:    1 + rng.Int63n(1000),
		}

		fusedSum, fusedEnv := execute(spec)
		off := spec
		off.noFastPath = true
		offSum, offEnv := execute(off)

		if fusedSum != offSum {
			t.Errorf("trial %d (%s on %s flows=%d load=%g seed=%d): fused summary diverged from -fastpath=off\nfused: %+v\noff:   %+v",
				trial, spec.sc.name, fab.name, spec.flows, spec.load, spec.seed, fusedSum, offSum)
		}
		if fusedEnv.Eff != offEnv.Eff {
			t.Errorf("trial %d (%s on %s flows=%d load=%g seed=%d): fused efficiency counters diverged from -fastpath=off\nfused: %+v\noff:   %+v",
				trial, spec.sc.name, fab.name, spec.flows, spec.load, spec.seed, fusedEnv.Eff, offEnv.Eff)
		}
		fe, oe := fusedEnv.Net.Executed(), offEnv.Net.Executed()
		if fe >= oe {
			t.Errorf("trial %d (%s on %s): fused run executed %d events, -fastpath=off %d; fusion must cost fewer",
				trial, spec.sc.name, fab.name, fe, oe)
		}
		fusedEvents += fe
		classicEvents += oe
	}
	if classicEvents == 0 {
		t.Fatal("no events executed")
	}
	saved := 1 - float64(fusedEvents)/float64(classicEvents)
	if saved < 0.10 {
		t.Fatalf("fusion saved only %.1f%% of events (%d vs %d); expected a material reduction on monolithic pooled fabrics",
			100*saved, fusedEvents, classicEvents)
	}
	t.Logf("fused %d events vs classic %d (%.1f%% saved)", fusedEvents, classicEvents, 100*saved)
}
