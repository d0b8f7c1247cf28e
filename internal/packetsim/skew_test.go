package packetsim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/traffic"
)

// skewedStar is the partition-hostile scenario of the sharding contract:
// a star of three k=4 fat-trees where nearly all traffic lives inside
// tree 0. The uniform edge-cut partition is even by switch count but puts
// the whole hot tree's event load behind few shards, so cut traffic and
// idle shards are at their worst.
func skewedStar() (*netgraph.Topology, traffic.Trace) {
	topo := netgraph.StarOfFatTrees(3, 4, netgraph.Gig)
	hosts := topo.Hosts() // tree t owns hosts[16t : 16t+16]
	var tr traffic.Trace
	for i := 0; i < 20; i++ {
		src := hosts[i%16]
		dst := hosts[(i+8)%16]
		d := cbr(src, dst, simtime.Time(i)*simtime.Time(5*simtime.Millisecond), 2e6, 5e7)
		d.Key.SrcPort = uint16(34000 + i)
		if i%4 == 1 {
			d.TCP = true
			d.RateBps = math.Inf(1)
			d.Key.Proto = header.ProtoTCP
		}
		tr = append(tr, d)
	}
	// Light cross-tree background so the hub cut carries traffic too.
	for i := 0; i < 4; i++ {
		d := cbr(hosts[16+i], hosts[32+i],
			simtime.Time(i)*simtime.Time(11*simtime.Millisecond), 1e6, 2e7)
		d.Key.SrcPort = uint16(35000 + i)
		tr = append(tr, d)
	}
	tr.Sort()
	return topo, tr
}

// runSkewed runs the skewed star (pre-installed routes, no controller) at
// the given shard count and queue backend.
func runSkewed(shards int, q eventq.Backend) shardRunResult {
	topo, tr := skewedStar()
	sim := New(Config{
		Topology: topo, Miss: dataplane.MissDrop, Shards: shards,
		EventQueue: q,
		StatsEvery: 20 * simtime.Millisecond,
	})
	installMACRoutes(sim.Network())
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	return snapshot(sim, col)
}

// TestSkewedStarShardParity extends the shard determinism contract to the
// skewed star: runs at shards ∈ {1, 2, 4} × backend ∈ {heap, wheel} must
// reproduce the serial heap reference byte-for-byte.
func TestSkewedStarShardParity(t *testing.T) {
	serial := runSkewed(0, eventq.BackendHeap)
	if len(serial.records) == 0 {
		t.Fatal("skewed scenario produced no records")
	}
	completed := 0
	for _, r := range serial.records {
		if r.Completed {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("skewed scenario completed no flows")
	}
	for _, q := range []eventq.Backend{eventq.BackendHeap, eventq.BackendWheel} {
		for _, shards := range []int{1, 2, 4} {
			diffRuns(t, q.String(), serial, runSkewed(shards, q), shards)
		}
	}
}

// TestSkewSoak is the nightly soak arm: the skewed star under the uniform
// partition at 4 shards, byte-compared against serial,
// with the per-shard dispatch histogram exported when HORSE_SOAK_DIR is
// set (the nightly job runs this -count=3 and uploads the histograms as
// artifacts, so shard-load drift across runs is visible in CI).
func TestSkewSoak(t *testing.T) {
	serial := runSkewed(0, eventq.BackendHeap)
	topo, tr := skewedStar()
	sim := New(Config{
		Topology: topo, Miss: dataplane.MissDrop, Shards: 4,
		StatsEvery: 20 * simtime.Millisecond,
	})
	installMACRoutes(sim.Network())
	sim.Load(tr)
	col := mustRun(sim, simtime.Time(2*simtime.Second))
	diffRuns(t, "skew-soak", serial, snapshot(sim, col), 4)

	loads := sim.ShardLoads()
	if len(loads) != 4 {
		t.Fatalf("ShardLoads returned %d shards, want 4", len(loads))
	}
	var total uint64
	for _, n := range loads {
		total += n
	}
	if total == 0 {
		t.Fatal("sharded run dispatched no events")
	}
	dir := os.Getenv("HORSE_SOAK_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(dir, "shard-loads-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(map[string]any{
		"scenario": "skewed-star", "shards": 4, "dispatched": loads,
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("shard dispatch histogram %v written to %s", loads, f.Name())
}

// twoIslands is a deliberately disconnected fabric: two three-switch
// chains with two hosts per switch and no path between islands.
func twoIslands() *netgraph.Topology {
	topo := netgraph.New()
	for isl := 0; isl < 2; isl++ {
		var prev netgraph.NodeID = -1
		for j := 0; j < 3; j++ {
			sw := topo.AddSwitch(fmt.Sprintf("i%d_sw%d", isl, j))
			if prev >= 0 {
				topo.Connect(prev, sw, netgraph.Gig.BandwidthBps, 100*simtime.Microsecond)
			}
			prev = sw
			for h := 0; h < 2; h++ {
				host := topo.AddHost(fmt.Sprintf("i%d_h%d_%d", isl, j, h))
				topo.Connect(sw, host, netgraph.Gig.BandwidthBps, simtime.Microsecond)
			}
		}
	}
	return topo
}

// islandTraffic crosses hosts within each island (islands are mutually
// unreachable by construction).
func islandTraffic(topo *netgraph.Topology) traffic.Trace {
	hosts := topo.Hosts() // island 0 owns the first 6
	var tr traffic.Trace
	for i := 0; i < 8; i++ {
		base := (i % 2) * 6
		src := hosts[base+i%6]
		dst := hosts[base+(i+3)%6]
		d := cbr(src, dst, simtime.Time(i)*simtime.Time(3*simtime.Millisecond), 4e5, 2e7)
		d.Key.SrcPort = uint16(36000 + i)
		tr = append(tr, d)
	}
	tr.Sort()
	return tr
}

// TestControllerShardingComponents runs a reactive control plane over the
// disconnected fabric: with a forkable controller each island gets its
// own instance homed by partition plurality, and the records must stay
// byte-identical to the serial single-instance run. The non-forkable
// variant (a Chain containing Monitor) must fall back to one instance —
// off shard 0 is allowed — and match serial too.
func TestControllerShardingComponents(t *testing.T) {
	run := func(shards int, mk func() *controller.Chain) (shardRunResult, *Simulator) {
		topo := topoIslands()
		sim := New(Config{
			Topology: topo, Miss: dataplane.MissController, Shards: shards,
			Controller:     mk(),
			ControlLatency: 50 * simtime.Microsecond,
		})
		sim.Load(islandTraffic(topo))
		col := mustRun(sim, simtime.Time(simtime.Second))
		return snapshot(sim, col), sim
	}
	cases := []struct {
		name     string
		forkable bool
		mk       func() *controller.Chain
	}{
		{"forkable-reactive", true, func() *controller.Chain {
			return controller.NewChain(&controller.ReactiveMAC{})
		}},
		{"forkable-proactive", true, func() *controller.Chain {
			return controller.NewChain(&controller.ProactiveMAC{})
		}},
		{"nonforkable-monitor", false, func() *controller.Chain {
			return controller.NewChain(&controller.ReactiveMAC{},
				&controller.Monitor{Every: 100 * simtime.Millisecond})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, _ := run(0, tc.mk)
			if serial.mods == 0 {
				t.Fatal("control plane installed nothing")
			}
			for _, shards := range []int{2, 4} {
				got, sim := run(shards, tc.mk)
				diffRuns(t, tc.name, serial, got, shards)
				if sim.nshards <= 1 {
					t.Fatalf("shards=%d fell back to serial", shards)
				}
				if sim.ncomp != 2 {
					t.Fatalf("ncomp = %d, want 2", sim.ncomp)
				}
				if tc.forkable {
					if sim.ctrlBy[0] == sim.ctrlBy[1] {
						t.Error("forkable controller shares one instance across components")
					}
				} else if sim.ctrlBy[0] != sim.ctrlBy[1] {
					t.Error("non-forkable controller was forked")
				}
			}
		})
	}
}

// topoIslands exists so the closure above rebuilds a fresh topology per
// run (Simulators mutate link state in place).
func topoIslands() *netgraph.Topology { return twoIslands() }
