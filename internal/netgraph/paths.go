package netgraph

import (
	"container/heap"
	"math"
	"sort"
)

// Path is a sequence of node IDs from source to destination inclusive.
type Path []NodeID

// Equal reports whether two paths visit the same nodes in the same order.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Cost functions assign a traversal cost to a link. Paths are computed over
// up links only regardless of the cost function.
type Cost func(*Link) float64

// HopCost counts every link as 1 — shortest paths by hop count.
func HopCost(*Link) float64 { return 1 }

// DelayCost uses propagation delay in seconds as the link cost.
func DelayCost(l *Link) float64 { return l.Delay.Seconds() }

// InverseCapacityCost prefers fat links, like classic OSPF reference-cost.
func InverseCapacityCost(l *Link) float64 {
	if l.BandwidthBps <= 0 {
		return math.Inf(1)
	}
	return 1e9 / l.BandwidthBps
}

type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath returns a minimum-cost path from src to dst over up links,
// or nil if dst is unreachable. Ties are broken toward lower node IDs so
// results are deterministic.
func (t *Topology) ShortestPath(src, dst NodeID, cost Cost) Path {
	dist, prev := t.dijkstra(src, cost, nil)
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	var path Path
	for at := dst; ; at = prev[at] {
		path = append(path, at)
		if at == src {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// dijkstra runs Dijkstra from src. banned, if non-nil, marks links that must
// not be traversed (used by Yen's algorithm).
func (t *Topology) dijkstra(src NodeID, cost Cost, banned map[LinkID]bool) (dist []float64, prev []NodeID) {
	n := len(t.nodes)
	dist = make([]float64, n)
	prev = make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		node := t.nodes[it.node]
		// Iterate ports in ascending order for determinism.
		for _, lid := range node.links {
			l := t.links[lid]
			if !l.Up || (banned != nil && banned[lid]) {
				continue
			}
			c := cost(l)
			if math.IsInf(c, 1) {
				continue
			}
			peer, _ := l.Peer(it.node)
			nd := it.dist + c
			if nd < dist[peer] || (nd == dist[peer] && prev[peer] > it.node) {
				dist[peer] = nd
				prev[peer] = it.node
				heap.Push(q, pqItem{node: peer, dist: nd})
			}
		}
	}
	return dist, prev
}

// PathCost sums the cost of the links along a path; it returns +Inf if any
// consecutive pair is not adjacent via an up link.
func (t *Topology) PathCost(p Path, cost Cost) float64 {
	total := 0.0
	for i := 0; i+1 < len(p); i++ {
		port := t.PortToward(p[i], p[i+1])
		if port == NoPort {
			return math.Inf(1)
		}
		total += cost(t.LinkAt(p[i], port))
	}
	return total
}

// ECMPNextHops returns, for every node, the set of neighbor nodes that lie
// on some minimum-cost path toward dst. The result is indexed by node ID;
// unreachable nodes have a nil entry. This is the substrate for hash-based
// load-balancing groups.
func (t *Topology) ECMPNextHops(dst NodeID, cost Cost) [][]NodeID {
	// Run Dijkstra from dst; for node v, neighbor u is a valid next hop
	// iff dist[u] + cost(v-u) == dist[v].
	dist, _ := t.dijkstra(dst, cost, nil)
	out := make([][]NodeID, len(t.nodes))
	const eps = 1e-12
	for v := range t.nodes {
		if math.IsInf(dist[v], 1) || NodeID(v) == dst {
			continue
		}
		node := t.nodes[v]
		var hops []NodeID
		seen := make(map[NodeID]bool)
		for _, lid := range node.links {
			l := t.links[lid]
			if !l.Up {
				continue
			}
			u, _ := l.Peer(NodeID(v))
			if seen[u] {
				continue
			}
			if dist[u]+cost(l) <= dist[v]+eps {
				hops = append(hops, u)
				seen[u] = true
			}
		}
		sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
		out[v] = hops
	}
	return out
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// nondecreasing cost order (Yen's algorithm). It returns fewer than k when
// the graph does not contain that many distinct paths.
func (t *Topology) KShortestPaths(src, dst NodeID, k int, cost Cost) []Path {
	if k <= 0 {
		return nil
	}
	first := t.ShortestPath(src, dst, cost)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prevPath := paths[len(paths)-1]
		for i := 0; i+1 < len(prevPath); i++ {
			spurNode := prevPath[i]
			rootPath := prevPath[:i+1]
			banned := make(map[LinkID]bool)
			// Ban the next edge of every accepted path sharing this root.
			for _, p := range paths {
				if len(p) > i+1 && Path(p[:i+1]).Equal(rootPath) {
					port := t.PortToward(p[i], p[i+1])
					if port != NoPort {
						banned[t.LinkAt(p[i], port).ID] = true
					}
				}
			}
			// Ban revisiting root nodes by banning all their links
			// (except the spur node itself).
			for _, rn := range rootPath[:len(rootPath)-1] {
				for _, lid := range t.nodes[rn].links {
					banned[lid] = true
				}
			}
			spurDist, spurPrev := t.dijkstra(spurNode, cost, banned)
			if math.IsInf(spurDist[dst], 1) {
				continue
			}
			var spurPath Path
			for at := dst; ; at = spurPrev[at] {
				spurPath = append(spurPath, at)
				if at == spurNode {
					break
				}
			}
			for a, b := 0, len(spurPath)-1; a < b; a, b = a+1, b-1 {
				spurPath[a], spurPath[b] = spurPath[b], spurPath[a]
			}
			total := make(Path, 0, i+len(spurPath))
			total = append(total, rootPath[:len(rootPath)-1]...)
			total = append(total, spurPath...)
			dup := false
			for _, c := range candidates {
				if c.Equal(total) {
					dup = true
					break
				}
			}
			for _, p := range paths {
				if p.Equal(total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			ci, cj := t.PathCost(candidates[i], cost), t.PathCost(candidates[j], cost)
			if ci != cj {
				return ci < cj
			}
			return lessPath(candidates[i], candidates[j])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func lessPath(a, b Path) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Reachable reports whether dst can be reached from src over up links.
func (t *Topology) Reachable(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	visited := make([]bool, len(t.nodes))
	stack := []NodeID{src}
	visited[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range t.Neighbors(v) {
			if u == dst {
				return true
			}
			if !visited[u] {
				visited[u] = true
				stack = append(stack, u)
			}
		}
	}
	return false
}

// Diameter returns the maximum finite hop-count shortest-path length
// between any pair of nodes (0 for empty/singleton graphs).
func (t *Topology) Diameter() int {
	max := 0
	for _, src := range t.Nodes() {
		dist, _ := t.dijkstra(src, HopCost, nil)
		for _, d := range dist {
			if !math.IsInf(d, 1) && int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}
