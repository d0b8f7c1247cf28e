package dataplane

import (
	"slices"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
)

// Terminal says how a path walk ended.
type Terminal uint8

// Walk outcomes.
const (
	// Delivered: the flow reached its destination host over unicast
	// forwarding; Hops describes the full path.
	Delivered Terminal = iota
	// Punted: a switch sent the flow to the controller and has no
	// unicast output for it; the flow waits for control-plane action.
	Punted
	// Dropped: a switch discarded the flow (blackholed, ACL, table-miss
	// drop, or a dead group).
	Dropped
	// Flooded: forwarding relies on flooding; the first packet reaches
	// the destination (if FloodReaches) but there is no sustained path.
	Flooded
	// Looped: the walk revisited a (switch, key) state — a forwarding
	// loop; the paper's "packets do not flow as expected" failure class.
	Looped
	// Stuck: the egress port has no link or the link is down.
	Stuck
)

func (t Terminal) String() string {
	switch t {
	case Delivered:
		return "delivered"
	case Punted:
		return "punted"
	case Dropped:
		return "dropped"
	case Flooded:
		return "flooded"
	case Looped:
		return "looped"
	case Stuck:
		return "stuck"
	}
	return "unknown"
}

// Hop is one switch traversal on a resolved path.
type Hop struct {
	Switch  netgraph.NodeID
	InPort  netgraph.PortNum
	OutPort netgraph.PortNum
	// Link is the egress link (switch→next node).
	Link *netgraph.Link
}

// MeterRef names a meter on a specific switch.
type MeterRef struct {
	Switch netgraph.NodeID
	Meter  openflow.MeterID
}

// PathResult is the resolution of a flow through the network.
type PathResult struct {
	Terminal Terminal
	// Hops is the switch path (valid for Delivered; best-effort prefix
	// otherwise).
	Hops []Hop
	// At is the switch where a non-Delivered terminal occurred.
	At netgraph.NodeID
	// Entries is every flow entry matched along the way, for byte
	// accounting.
	Entries []*openflow.FlowEntry
	// Meters is every meter passed, for policing.
	Meters []MeterRef
	// PacketIns lists switches that punted the flow while processing it.
	PacketIns []netgraph.NodeID
	// FloodReaches reports whether flooding would deliver the first
	// packet to the destination (valid when Terminal == Flooded).
	FloodReaches bool
	// ExitKey is the flow key on delivery (after any rewrites).
	ExitKey header.FlowKey
}

// Network is the collection of switch states over a topology, plus the walk
// logic. It is the "Topology + network state" building block.
type Network struct {
	Topo     *netgraph.Topology
	Switches map[netgraph.NodeID]*Switch
}

// NewNetwork creates a Network with a switch (of the given miss behavior)
// for every switch node in the topology.
func NewNetwork(topo *netgraph.Topology, miss MissBehavior) *Network {
	n := &Network{Topo: topo, Switches: make(map[netgraph.NodeID]*Switch)}
	for _, id := range topo.Switches() {
		n.Switches[id] = NewSwitch(id, miss)
	}
	return n
}

// PortLiveFunc returns the liveness oracle for a switch: a port is live if
// its link exists and is up.
func (n *Network) PortLiveFunc(sw netgraph.NodeID) PortLive {
	return func(p netgraph.PortNum) bool {
		l := n.Topo.LinkAt(sw, p)
		return l != nil && l.Up
	}
}

// Walk resolves the path of a flow with the given key from a source host to
// a destination host. dst may be -1 when unknown (delivery is then detected
// by reaching any host matching the key's EthDst — Horse identifies hosts
// by MAC, so normally dst is known).
func (n *Network) Walk(key header.FlowKey, src, dst netgraph.NodeID) PathResult {
	res := PathResult{ExitKey: key}
	sw, inPort := n.Topo.AttachedSwitch(src)
	if sw < 0 {
		res.Terminal = Stuck
		res.At = src
		return res
	}
	if l := n.Topo.LinkAt(sw, inPort); l == nil || !l.Up {
		res.Terminal = Stuck
		res.At = src
		return res
	}

	// A walk's results grow in stack buffers sized for typical fabrics
	// (append spills longer walks to the heap) and leave as exact-size
	// copies. Loops are found by a linear scan of the visited (switch,
	// key) states: paths are short, so the scan beats hashing.
	var (
		hopBuf   [8]Hop
		entryBuf [8 * NumTables]*openflow.FlowEntry
		meterBuf [8]MeterRef
		puntBuf  [4]netgraph.NodeID
		seenBuf  [16]visit
	)
	hops, entries, meters, punts, seen := hopBuf[:0], entryBuf[:0], meterBuf[:0], puntBuf[:0], seenBuf[:0]
	cur, curIn, curKey := sw, inPort, key

	// res.At tracks cur; a walk that revisits a state or runs out of hops
	// ends Looped there.
	res.Terminal, res.At = Looped, cur
	maxHops := 4*n.Topo.NumNodes() + 8
walk:
	for hop := 0; hop < maxHops; hop++ {
		v := visit{cur, curKey}
		if slices.Contains(seen, v) {
			break
		}
		seen = append(seen, v)

		s := n.Switches[cur]
		if s == nil {
			res.Terminal = Stuck
			break
		}
		d := s.Process(curKey, n.PortLiveFunc(cur))
		entries = append(entries, d.Entries()...)
		for _, m := range d.Meters() {
			meters = append(meters, MeterRef{Switch: cur, Meter: m})
		}
		if d.ToController {
			punts = append(punts, cur)
		}
		switch {
		case d.Drop:
			res.Terminal = Dropped
			break walk
		case d.Flood:
			res.Terminal = Flooded
			res.FloodReaches = n.floodReaches(cur, curIn, dst)
			break walk
		case d.Out != netgraph.NoPort:
			link := n.Topo.LinkAt(cur, d.Out)
			if link == nil || !link.Up {
				res.Terminal = Stuck
				break walk
			}
			next, nextPort := link.Peer(cur)
			hops = append(hops, Hop{Switch: cur, InPort: curIn, OutPort: d.Out, Link: link})
			if n.Topo.Node(next).Kind == netgraph.KindHost {
				if next == dst || dst < 0 {
					res.Terminal, res.At = Delivered, 0
					res.ExitKey = d.Key
					break walk
				}
				// Delivered to the wrong host: the policy misdirected the
				// flow; classify as dropped there.
				res.Terminal = Dropped
				res.At = next
				break walk
			}
			cur, curIn, curKey = next, nextPort, d.Key
			res.At = cur
		case d.ToController:
			res.Terminal = Punted
			break walk
		default:
			res.Terminal = Dropped
			break walk
		}
	}
	res.Hops = exact(hops)
	res.Entries = exact(entries)
	res.Meters = exact(meters)
	res.PacketIns = exact(punts)
	return res
}

// visit is one (switch, key) state of a path walk; revisiting one is a
// forwarding loop.
type visit struct {
	node netgraph.NodeID
	key  header.FlowKey
}

// exact returns a heap copy of buf at its exact length, or nil when buf is
// empty, so a walk's stack buffers never escape.
func exact[T any](buf []T) []T {
	if len(buf) == 0 {
		return nil
	}
	out := make([]T, len(buf))
	copy(out, buf)
	return out
}

// floodReaches reports whether flooding from sw (excluding inPort) would
// reach dst, assuming every switch floods unknown traffic. It approximates
// the L2 broadcast behavior used during learning.
func (n *Network) floodReaches(sw netgraph.NodeID, inPort netgraph.PortNum, dst netgraph.NodeID) bool {
	if dst < 0 {
		return false
	}
	visited := map[netgraph.NodeID]bool{sw: true}
	stack := []netgraph.NodeID{sw}
	first := true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := n.Topo.Node(v)
		for _, p := range node.Ports() {
			if first && v == sw && p == inPort {
				continue
			}
			l := n.Topo.LinkAt(v, p)
			if l == nil || !l.Up {
				continue
			}
			peer, _ := l.Peer(v)
			if peer == dst {
				return true
			}
			if n.Topo.Node(peer).Kind == netgraph.KindSwitch && !visited[peer] {
				visited[peer] = true
				stack = append(stack, peer)
			}
		}
		first = false
	}
	return false
}
