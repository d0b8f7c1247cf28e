package netgraph

import (
	"sort"

	"horse/internal/simtime"
)

// PartitionK splits the topology's switches into k balanced parts with few
// cut edges, and assigns every host to its attached switch's part (so
// host links never cross a cut). The result maps NodeID → part index in
// [0, k). The algorithm is deterministic for a given topology:
//
//  1. Seed selection: the first switch by ID seeds part 0; each further
//     part is seeded by the unassigned switch farthest (in hops) from all
//     previous seeds — the classic k-center spread, which lands one seed
//     per pod on fat-tree-like fabrics.
//  2. Balanced BFS growth: parts claim nodes from their BFS frontiers in
//     round-robin part order (lowest node ID first within a frontier),
//     capped at ceil(S/k) switches per part, so pods and switch groups
//     grow as contiguous regions and the cut falls on the few links
//     between regions.
//
// Disconnected leftovers are assigned round-robin to the smallest parts.
// k <= 1, or k >= the switch count, degenerate to the obvious answers.
func (t *Topology) PartitionK(k int) []int32 {
	parts := make([]int32, len(t.nodes))
	switches := t.Switches()
	if k > len(switches) {
		k = len(switches)
	}
	if k <= 1 {
		for i := range parts {
			parts[i] = 0
		}
		return parts
	}
	const unassigned = int32(-1)
	for i := range parts {
		parts[i] = unassigned
	}

	// Switch-switch adjacency (hosts follow their switch at the end).
	adj := make([][]NodeID, len(t.nodes))
	for _, l := range t.links {
		if t.nodes[l.A].Kind == KindSwitch && t.nodes[l.B].Kind == KindSwitch {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
	}
	for _, n := range switches {
		sort.Slice(adj[n], func(i, j int) bool { return adj[n][i] < adj[n][j] })
	}

	// Seed spread: farthest-first traversal over hop distance.
	seeds := []NodeID{switches[0]}
	dist := make([]int, len(t.nodes)) // min hop distance to any seed
	for i := range dist {
		dist[i] = int(^uint(0) >> 1)
	}
	bfsFrom := func(src NodeID) {
		if dist[src] == 0 {
			return
		}
		dist[src] = 0
		queue := []NodeID{src}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, m := range adj[n] {
				if dist[m] > dist[n]+1 {
					dist[m] = dist[n] + 1
					queue = append(queue, m)
				}
			}
		}
	}
	bfsFrom(seeds[0])
	for len(seeds) < k {
		far := NodeID(-1)
		for _, n := range switches {
			if far < 0 || dist[n] > dist[far] {
				far = n
			}
		}
		seeds = append(seeds, far)
		bfsFrom(far)
	}

	// Balanced round-robin BFS growth from the seeds: a part stops
	// claiming once it holds ceil(S/k) switches.
	capPer := (len(switches) + k - 1) / k
	size := make([]int, k)
	frontiers := make([][]NodeID, k)
	claim := func(n NodeID, p int) {
		parts[n] = int32(p)
		size[p]++
		frontiers[p] = append(frontiers[p], adj[n]...)
	}
	for p, s := range seeds {
		claim(s, p)
	}
	for {
		progressed := false
		for p := 0; p < k; p++ {
			if size[p] >= capPer {
				continue
			}
			// Pop the lowest-ID unassigned frontier node of part p.
			best := NodeID(-1)
			for _, n := range frontiers[p] {
				if parts[n] == unassigned && (best < 0 || n < best) {
					best = n
				}
			}
			if best < 0 {
				continue
			}
			claim(best, p)
			progressed = true
		}
		if !progressed {
			break
		}
	}

	// Leftovers (disconnected or capped out): smallest part first, ties by
	// part index.
	for _, n := range switches {
		if parts[n] != unassigned {
			continue
		}
		p := 0
		for q := 1; q < k; q++ {
			if size[q] < size[p] {
				p = q
			}
		}
		claim(n, p)
	}

	// Hosts follow their attached switch; isolated hosts land in part 0.
	for _, n := range t.nodes {
		if n.Kind != KindHost {
			continue
		}
		sw, _ := t.AttachedSwitch(n.ID)
		if sw >= 0 {
			parts[n.ID] = parts[sw]
		} else {
			parts[n.ID] = 0
		}
	}
	return parts
}

// CutLookahead returns the minimum propagation delay over the links whose
// endpoints lie in different parts — the conservative synchronization
// horizon of a sharded run: an event crossing the cut cannot take effect
// sooner than this after it was sent. It returns simtime.Forever when no
// link crosses the cut (fully independent parts never need to
// synchronize), and 0 if any cut link has a non-positive delay (no safe
// window exists; callers should fall back to serial execution).
func CutLookahead(t *Topology, parts []int32) simtime.Duration {
	min := simtime.Forever
	for _, l := range t.links {
		if parts[l.A] == parts[l.B] {
			continue
		}
		if l.Delay <= 0 {
			return 0
		}
		if l.Delay < min {
			min = l.Delay
		}
	}
	return min
}

// Components labels every node with the index of its connected component
// over switch-switch links: switches are grouped by BFS in ascending-ID
// order (so component indices are deterministic: the lowest switch ID in
// a component orders it), and hosts follow their attached switch.
// Isolated hosts land in component 0. The second result is the component
// count (at least 1 when any node exists, 0 for an empty topology).
func Components(t *Topology) ([]int32, int) {
	comp := make([]int32, len(t.nodes))
	for i := range comp {
		comp[i] = -1
	}
	adj := make([][]NodeID, len(t.nodes))
	for _, l := range t.links {
		if t.nodes[l.A].Kind == KindSwitch && t.nodes[l.B].Kind == KindSwitch {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
	}
	n := 0
	for _, s := range t.Switches() {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = int32(n)
		queue := []NodeID{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if comp[v] < 0 {
					comp[v] = int32(n)
					queue = append(queue, v)
				}
			}
		}
		n++
	}
	for _, nd := range t.nodes {
		if nd.Kind != KindHost {
			continue
		}
		if sw, _ := t.AttachedSwitch(nd.ID); sw >= 0 {
			comp[nd.ID] = comp[sw]
		} else {
			comp[nd.ID] = 0
			if n == 0 {
				n = 1
			}
		}
	}
	if n == 0 && len(t.nodes) > 0 {
		n = 1
	}
	return comp, n
}

// CutSize returns how many links cross between different parts — the
// edge-cut quality metric of a partition.
func CutSize(t *Topology, parts []int32) int {
	n := 0
	for _, l := range t.links {
		if parts[l.A] != parts[l.B] {
			n++
		}
	}
	return n
}
