package packetsim

import (
	"testing"

	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/linkmodel"
	"horse/internal/simtime"
)

// runGoldenDegraded runs the golden fat-tree with a link-degradation
// model installed on every link, at the given shard count and backend.
func runGoldenDegraded(m linkmodel.Model, seed uint64, shards int, q eventq.Backend) shardRunResult {
	topo, tr := goldenFatTree()
	links := linkmodel.NewSet(seed, topo.NumLinks())
	links.SetDefault(m)
	sim := New(Config{
		Topology: topo, Miss: dataplane.MissDrop, Shards: shards,
		StatsEvery: 20 * simtime.Millisecond,
		EventQueue: q,
		Links:      links,
	})
	installMACRoutes(sim.Network())
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	return snapshot(sim, col)
}

// TestLinkModelShardParity pins the determinism contract with models
// enabled: corruption streams are owner-shard-driven and seed-keyed, so
// Records(), samples, and counters stay byte-identical to the serial
// heap reference at every shard count and backend.
func TestLinkModelShardParity(t *testing.T) {
	models := []struct {
		name string
		m    linkmodel.Model
	}{
		{"bernoulli", linkmodel.BernoulliLoss{P: 0.03}},
		{"gilbert-elliott", linkmodel.GilbertElliott{
			PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0.001, LossBad: 0.5,
		}},
		{"adaptive-rate", linkmodel.AdaptiveRate{
			Levels: 4, Floor: 0.25, Every: 10 * simtime.Millisecond,
		}},
	}
	for _, mc := range models {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			ref := runGoldenDegraded(mc.m, 7, 0, eventq.BackendHeap)
			for _, shards := range []int{2, 4} {
				diffRuns(t, mc.name+"-heap", ref,
					runGoldenDegraded(mc.m, 7, shards, eventq.BackendHeap), shards)
				diffRuns(t, mc.name+"-wheel", ref,
					runGoldenDegraded(mc.m, 7, shards, eventq.BackendWheel), shards)
			}
		})
	}
}

// TestLinkModelSeedSensitivity: changing the corruption seed must change
// the drop pattern (same everything else) — the seed is live, not inert.
func TestLinkModelSeedSensitivity(t *testing.T) {
	m := linkmodel.BernoulliLoss{P: 0.03}
	a := runGoldenDegraded(m, 7, 0, eventq.BackendHeap)
	b := runGoldenDegraded(m, 8, 0, eventq.BackendHeap)
	if a.lost == b.lost && len(a.records) == len(b.records) {
		same := true
		for i := range a.records {
			if a.records[i] != b.records[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 7 and 8 produced identical degraded runs; the corruption seed is dead")
		}
	}
}

// FuzzLinkModelParity is the pinned invariant of the link-model streams:
// for ANY model parameters, corruption seed, shard count, and queue
// backend, a degraded run is byte-identical to the serial heap run of the
// same model and seed. The reference depends on the fuzzed model, so both
// runs execute per input.
func FuzzLinkModelParity(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), uint64(7), uint8(4), false)
	f.Add(uint8(1), uint8(5), uint8(30), uint64(1), uint8(2), true)
	f.Add(uint8(2), uint8(4), uint8(25), uint64(99), uint8(4), false)
	f.Add(uint8(1), uint8(100), uint8(100), uint64(7), uint8(8), true)
	f.Fuzz(func(t *testing.T, kind, p1, p2 uint8, seed uint64, shards uint8, wheel bool) {
		var m linkmodel.Model
		switch kind % 3 {
		case 0:
			// p ∈ [0, 0.99]
			m = linkmodel.BernoulliLoss{P: float64(p1%100) / 101}
		case 1:
			m = linkmodel.GilbertElliott{
				PGoodBad: float64(p1%100)/101 + 0.001,
				PBadGood: float64(p2%100)/101 + 0.001,
				LossGood: 0.001,
				LossBad:  0.5,
			}
		case 2:
			m = linkmodel.AdaptiveRate{
				Levels: 2 + int(p1%6),
				Floor:  0.2 + float64(p2%8)/10,
				Every:  simtime.Duration(1+p2%20) * simtime.Millisecond,
			}
		}
		if err := linkmodel.Validate(m); err != nil {
			t.Skip(err)
		}
		if seed == 0 {
			seed = 1
		}
		k := 2 + int(shards%7)
		q := eventq.BackendHeap
		if wheel {
			q = eventq.BackendWheel
		}
		ref := runGoldenDegraded(m, seed, 0, eventq.BackendHeap)
		diffRuns(t, "fuzz-linkmodel", ref, runGoldenDegraded(m, seed, k, q), k)
	})
}
