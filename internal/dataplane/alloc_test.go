package dataplane

import (
	"testing"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
)

// TestProcessAllocatesNothing pins the pipeline's zero-allocation budget:
// a flow through a metered goto into a select group, with a liveness
// oracle, runs on the stack.
func TestProcessAllocatesNothing(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	s.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 5, RateBps: 1e8}, 0)
	s.Apply(&openflow.GroupMod{Op: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupSelect,
		Buckets: []*openflow.Bucket{
			{WatchPort: 1, Actions: []openflow.Action{openflow.Output(1)}},
			{WatchPort: 2, Actions: []openflow.Action{openflow.Output(2)}},
		}}, 0)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Table: 0, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Instructions{Meter: 5}.WithGoto(1)}, 0)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Table: 1, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.GroupAction(1))}, 0)
	live := func(p netgraph.PortNum) bool { return p != 3 }
	key := testKey(1, 2, 80)

	d := s.Process(key, live)
	if d.Out == netgraph.NoPort || len(d.Entries()) != 2 || len(d.Meters()) != 1 {
		t.Fatalf("pipeline decision %+v: want an output, 2 entries and 1 meter", d)
	}
	if n := testing.AllocsPerRun(100, func() { d = s.Process(key, live) }); n != 0 {
		t.Errorf("Process allocates %v times per call, want 0", n)
	}
}

// TestWalkAllocationBudget pins a delivered walk to its result slices: a
// 3-hop path with no meters or punts allocates only the exact-size hop
// and entry copies.
func TestWalkAllocationBudget(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	key := testKey(10, 20, 80)
	installPath(n, topo, key.EthDst)
	var res PathResult
	allocs := testing.AllocsPerRun(100, func() { res = n.Walk(key, h0, h2) })
	if res.Terminal != Delivered || len(res.Hops) != 3 {
		t.Fatalf("walk = %v with %d hops, want delivered over 3", res.Terminal, len(res.Hops))
	}
	if allocs > 2 {
		t.Errorf("Walk allocates %v times per call, want at most 2", allocs)
	}
}

// TestWalkLongVLANLoop drives a loop through more (switch, key) states
// than the walk's stack buffers hold: s1 bumps the VLAN tag on every pass
// and finally pops it, so the flow circles s0↔s1 through 26 distinct
// states before it revisits (s0, untagged) and ends Looped at s0.
func TestWalkLongVLANLoop(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	s0, s1 := topo.MustLookup("s0"), topo.MustLookup("s1")
	const top = 12
	back := topo.PortToward(s1, s0)
	n.Switches[s0].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Output(topo.PortToward(s0, s1)))}, 0)
	n.Switches[s1].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.SetVLAN(1), openflow.Output(back))}, 0)
	for v := uint16(1); v < top; v++ {
		n.Switches[s1].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 10, Match: header.Match{}.WithVLAN(v),
			Instr: openflow.Apply(openflow.SetVLAN(v+1), openflow.Output(back))}, 0)
	}
	n.Switches[s1].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 10, Match: header.Match{}.WithVLAN(top),
		Instr: openflow.Apply(openflow.PopVLAN(), openflow.Output(back))}, 0)

	res := n.Walk(testKey(10, 20, 80), h0, h2)
	if res.Terminal != Looped || res.At != s0 {
		t.Fatalf("terminal = %v at %d, want looped at s0 (%d)", res.Terminal, res.At, s0)
	}
	if want := 2 * (top + 1); len(res.Hops) != want {
		t.Errorf("hops = %d, want %d", len(res.Hops), want)
	}
}
