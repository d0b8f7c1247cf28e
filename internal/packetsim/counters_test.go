package packetsim

import (
	"fmt"
	"testing"

	"horse/internal/controller"
	"horse/internal/dataplane"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// TestCountersMatchRecords pins the packet engine's collector counters to
// its records: FlowsCompleted, FlowsDropped and FlowsLooped tally the
// emitted outcomes and EventsRun equals the events dispatched, serial and
// sharded, on the golden fat-tree both clean and with link failures that
// leave some flows incomplete.
func TestCountersMatchRecords(t *testing.T) {
	runs := map[string]func(shards int) (*Simulator, *stats.Collector){
		"golden": func(shards int) (*Simulator, *stats.Collector) {
			topo, tr := goldenFatTree()
			sim := New(Config{Topology: topo, Miss: dataplane.MissDrop, Shards: shards})
			installMACRoutes(sim.Network())
			sim.Load(tr)
			return sim, mustRun(sim, simtime.Time(2*simtime.Second))
		},
		"failures": func(shards int) (*Simulator, *stats.Collector) {
			topo, tr := goldenFatTree()
			sim := New(Config{
				Topology: topo, Miss: dataplane.MissController, Shards: shards,
				Controller: controller.NewChain(&controller.ProactiveMAC{}),
			})
			// Cut the first source host's access link at the start and
			// a core-facing link under running traffic, so some flows
			// end incomplete.
			sw, port := topo.AttachedSwitch(topo.Hosts()[0])
			sim.ScheduleLinkChange(0, topo.LinkAt(sw, port).ID, false)
			sim.ScheduleLinkChange(simtime.Time(10*simtime.Millisecond), topo.Links()[len(topo.Links())-1].ID, false)
			sim.Load(tr)
			return sim, mustRun(sim, simtime.Time(2*simtime.Second))
		},
	}
	for name, run := range runs {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				sim, col := run(shards)
				var want stats.Collector
				for _, r := range col.Flows() {
					want.CountOutcome(r)
				}
				c := col.Counters()
				if c.FlowsCompleted != want.FlowsCompleted || c.FlowsDropped != want.FlowsDropped || c.FlowsLooped != want.FlowsLooped {
					t.Errorf("counters completed/dropped/looped %d/%d/%d, records %d/%d/%d",
						c.FlowsCompleted, c.FlowsDropped, c.FlowsLooped,
						want.FlowsCompleted, want.FlowsDropped, want.FlowsLooped)
				}
				if c.FlowsCompleted == 0 || (name == "failures" && c.FlowsCompleted == uint64(len(col.Flows()))) {
					t.Errorf("%d of %d flows completed", c.FlowsCompleted, len(col.Flows()))
				}
				if c.EventsRun == 0 || c.EventsRun != sim.EventsDispatched() {
					t.Errorf("EventsRun %d, dispatched %d", c.EventsRun, sim.EventsDispatched())
				}
			})
		}
	}
}
