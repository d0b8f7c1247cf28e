// Package netgraph models the Topology building block of the Horse data
// plane: a graph of switches and hosts joined by capacity- and
// latency-annotated links. It also provides the path computations
// (shortest path, equal-cost multipath, k-shortest paths) that controller
// applications use to translate policies into forwarding state.
package netgraph

import (
	"fmt"
	"sort"

	"horse/internal/simtime"
)

// NodeID identifies a node within a Topology. IDs are dense and assigned in
// creation order.
type NodeID int32

// LinkID identifies a link within a Topology.
type LinkID int32

// PortNum is a node-local port number. Port numbers start at 1 to match
// OpenFlow conventions (0 is reserved/invalid).
type PortNum uint32

// NoPort is the invalid port number.
const NoPort PortNum = 0

// NodeKind distinguishes forwarding elements from traffic endpoints.
type NodeKind uint8

// Node kinds.
const (
	KindSwitch NodeKind = iota
	KindHost
)

func (k NodeKind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindHost:
		return "host"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is a switch or host in the topology.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind

	// links[p-1] is the link attached at port p. Ports are numbered 1,
	// 2, … in attach order and never removed, so the slice is dense.
	links []LinkID
	// ports is 1..len(links), the shared slice Ports returns.
	ports []PortNum
}

// Ports returns the attached port numbers in ascending order. The
// returned slice is shared and must not be modified.
func (n *Node) Ports() []PortNum { return n.ports }

// attach adds the next port, joined to link id, and returns its number.
func (n *Node) attach(id LinkID) PortNum {
	n.links = append(n.links, id)
	p := PortNum(len(n.links))
	n.ports = append(n.ports, p)
	return p
}

// Link is a bidirectional link between two node ports. Capacity applies
// independently to each direction (full duplex), matching real Ethernet.
type Link struct {
	ID LinkID

	A, B         NodeID
	APort, BPort PortNum

	// BandwidthBps is the capacity of each direction in bits/second.
	BandwidthBps float64
	// Delay is the one-way propagation delay.
	Delay simtime.Duration
	// Up is the administrative/operational state.
	Up bool
}

// Peer returns the far end of the link as seen from node n, and the port on
// that far end. It panics if n is not an endpoint.
func (l *Link) Peer(n NodeID) (NodeID, PortNum) {
	switch n {
	case l.A:
		return l.B, l.BPort
	case l.B:
		return l.A, l.APort
	}
	panic(fmt.Sprintf("netgraph: node %d is not on link %d", n, l.ID))
}

// PortAt returns the port of the link on node n.
func (l *Link) PortAt(n NodeID) PortNum {
	switch n {
	case l.A:
		return l.APort
	case l.B:
		return l.BPort
	}
	panic(fmt.Sprintf("netgraph: node %d is not on link %d", n, l.ID))
}

// Topology is a mutable network graph. It is not safe for concurrent
// mutation; the simulator is single-threaded by design (event ordering is
// the source of truth).
type Topology struct {
	nodes  []*Node
	links  []*Link
	byName map[string]NodeID
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{byName: make(map[string]NodeID)}
}

// AddSwitch adds a switch with the given (unique) name.
func (t *Topology) AddSwitch(name string) NodeID { return t.addNode(name, KindSwitch) }

// AddHost adds a host with the given (unique) name.
func (t *Topology) AddHost(name string) NodeID { return t.addNode(name, KindHost) }

func (t *Topology) addNode(name string, kind NodeKind) NodeID {
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("netgraph: duplicate node name %q", name))
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, &Node{ID: id, Name: name, Kind: kind})
	t.byName[name] = id
	return id
}

// Connect joins two nodes with a link of the given capacity and delay,
// allocating the next free port on each side. It returns the new link's ID.
func (t *Topology) Connect(a, b NodeID, bandwidthBps float64, delay simtime.Duration) LinkID {
	if a == b {
		panic("netgraph: self-loop links are not allowed")
	}
	na, nb := t.node(a), t.node(b)
	id := LinkID(len(t.links))
	l := &Link{
		ID: id, A: a, B: b,
		APort: na.attach(id), BPort: nb.attach(id),
		BandwidthBps: bandwidthBps, Delay: delay, Up: true,
	}
	t.links = append(t.links, l)
	return id
}

func (t *Topology) node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("netgraph: no node %d", id))
	}
	return t.nodes[id]
}

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) *Node { return t.node(id) }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) *Link {
	if int(id) < 0 || int(id) >= len(t.links) {
		panic(fmt.Sprintf("netgraph: no link %d", id))
	}
	return t.links[id]
}

// Lookup returns the node named name.
func (t *Topology) Lookup(name string) (NodeID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// MustLookup is Lookup that panics on a missing name; for tests and builders.
func (t *Topology) MustLookup(name string) NodeID {
	id, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("netgraph: no node named %q", name))
	}
	return id
}

// NumNodes returns the number of nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks returns the number of links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Nodes returns all node IDs in creation order.
func (t *Topology) Nodes() []NodeID {
	out := make([]NodeID, len(t.nodes))
	for i := range t.nodes {
		out[i] = NodeID(i)
	}
	return out
}

// Links returns all links in creation order. The returned slice must not be
// modified.
func (t *Topology) Links() []*Link { return t.links }

// Switches returns the IDs of all switch nodes.
func (t *Topology) Switches() []NodeID { return t.byKind(KindSwitch) }

// Hosts returns the IDs of all host nodes.
func (t *Topology) Hosts() []NodeID { return t.byKind(KindHost) }

func (t *Topology) byKind(k NodeKind) []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == k {
			out = append(out, n.ID)
		}
	}
	return out
}

// LinkAt returns the link attached to the given port of a node, or nil.
func (t *Topology) LinkAt(n NodeID, p PortNum) *Link {
	links := t.node(n).links
	if p == NoPort || int(p) > len(links) {
		return nil
	}
	return t.links[links[p-1]]
}

// PortToward returns the local port on `from` whose link leads directly to
// `to`, or NoPort if the nodes are not adjacent via an up link. When
// multiple parallel links exist the lowest-numbered up port wins.
func (t *Topology) PortToward(from, to NodeID) PortNum {
	for i, lid := range t.node(from).links {
		l := t.links[lid]
		if !l.Up {
			continue
		}
		if peer, _ := l.Peer(from); peer == to {
			return PortNum(i + 1)
		}
	}
	return NoPort
}

// Neighbors returns the IDs of nodes adjacent to n over up links, sorted.
func (t *Topology) Neighbors(n NodeID) []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	for _, lid := range t.node(n).links {
		l := t.links[lid]
		if !l.Up {
			continue
		}
		peer, _ := l.Peer(n)
		if !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetLinkUp changes a link's operational state. The caller (the simulator)
// is responsible for scheduling the corresponding PortStatus notification.
func (t *Topology) SetLinkUp(id LinkID, up bool) { t.Link(id).Up = up }

// HostOfPort returns the host attached behind a switch port, or -1 if the
// port leads to another switch (or nothing).
func (t *Topology) HostOfPort(sw NodeID, p PortNum) NodeID {
	l := t.LinkAt(sw, p)
	if l == nil {
		return -1
	}
	peer, _ := l.Peer(sw)
	if t.node(peer).Kind == KindHost {
		return peer
	}
	return -1
}

// AttachedSwitch returns the switch a host connects to and the switch-side
// port, or (-1, NoPort) if the host is isolated. Hosts are single-homed in
// Horse; with multiple links the lowest link ID wins, which is port 1's
// (link IDs grow in creation order, as do a node's port numbers).
func (t *Topology) AttachedSwitch(host NodeID) (NodeID, PortNum) {
	h := t.node(host)
	if len(h.links) == 0 {
		return -1, NoPort
	}
	return t.links[h.links[0]].Peer(host)
}
