// Package eventq implements the temporally ordered event queues that drive
// the Horse simulator. Events are the paper's first data-plane building
// block: every input to the topology — a flow arrival, a link failure, a
// control-plane message delivery — is an event with a firing time.
//
// Two implementations are provided behind the Queue interface: a binary
// min-heap (the default and the reference, O(log n) per operation) and a
// hierarchical timing wheel (O(1) schedule and O(1) true cancellation,
// built for timer-dominated million-flow populations). Both dequeue events
// in nondecreasing time order and break ties by order key (Keyed) and then
// insertion order, so a simulation run is fully deterministic for a given
// input sequence — and, with entity-derived keys, reproducible by the
// sharded executor regardless of how scheduling interleaves.
//
// Both implement Canceler: PushCancelable returns a Handle and Cancel
// removes the event before it fires and hands it back to the caller at
// once. The wheel physically unlinks in O(1); the heap marks the entry
// dead and skips it on dequeue (the entry is never compared through its
// event again, so a cancelled envelope may be recycled immediately). Len
// always reports live events only, so engine logic keyed on queue
// emptiness behaves identically on either backend.
package eventq

import "horse/internal/simtime"

// Event is anything that can be scheduled on a Queue.
type Event interface {
	// Time returns the instant at which the event fires. It must not
	// change while the event is queued.
	Time() simtime.Time
}

// Keyed is an Event that carries a deterministic order key. Queues sort by
// (time, key, insertion order): at one instant, smaller keys fire first,
// and equal keys keep FIFO order. Keys exist for parallel determinism —
// a sharded run cannot reproduce the global insertion order of a serial
// run, but it can reproduce (time, key) because keys derive from stable
// simulation entities (link direction, datapath, flow), not from schedule
// history. Engines that want identical results at any shard count stamp
// every event; events without keys sort after all keyed events at the
// same instant (DefaultOrderKey) in plain FIFO order.
type Keyed interface {
	Event
	// OrderKey returns the event's order key. It must not change while
	// the event is queued.
	OrderKey() uint64
}

// DefaultOrderKey is the order key assumed for events that do not
// implement Keyed. It sorts after every keyed event at the same instant.
const DefaultOrderKey = ^uint64(0)

func orderKeyOf(ev Event) uint64 {
	if k, ok := ev.(Keyed); ok {
		return k.OrderKey()
	}
	return DefaultOrderKey
}

// Queue is a temporally ordered event queue.
type Queue interface {
	// Push schedules an event.
	Push(Event)
	// Pop removes and returns the earliest event. Ties are broken by
	// order key (Keyed; DefaultOrderKey otherwise) and then insertion
	// order (FIFO). Pop returns nil when the queue is empty.
	Pop() Event
	// Peek returns the earliest event without removing it, or nil.
	Peek() Event
	// Len returns the number of queued (live, uncancelled) events.
	Len() int
}

// Canceler is a Queue with cancellation; both backends implement it.
// Engines use it to remove dead timers (retransmission timers rearmed on
// every ACK, flow timeouts rescheduled on every packet) instead of
// letting generation-stamped corpses sit in the queue and fire as no-ops.
type Canceler interface {
	Queue
	// PushCancelable schedules an event and returns a handle for Cancel.
	PushCancelable(Event) Handle
	// Cancel removes a previously scheduled event. It returns the event
	// and true when the event was still queued (the caller owns
	// recycling it, and the queue guarantees it will never touch the
	// event again); a zero, stale, already-cancelled, or already-fired
	// handle returns (nil, false).
	Cancel(Handle) (Event, bool)
}

// Handle identifies one cancelable scheduled event. The zero Handle is
// valid and cancels as a no-op. Handles are invalidated when the event
// fires, is cancelled, or is popped — a stale Cancel is safe and returns
// false.
type Handle struct {
	n   *node
	gen uint32
}

// node is the per-event bookkeeping record behind a Handle. The heap uses
// only (ev, gen, dead) — the node marks a queue entry dead so dequeue can
// skip it. The wheel stores events entirely in nodes:
// slot chains and the overflow list link through prev/next, and `where`
// records the node's current location so Cancel can unlink in O(1).
// Nodes are pooled per queue; gen increments on every recycle so stale
// handles never alias a reused node.
type node struct {
	ev    Event
	t     simtime.Time
	key   uint64
	seq   uint64
	prev  *node
	next  *node
	gen   uint32
	where uint16
	dead  bool
}

// Locations for node.where. Values below wheelLevels*wheelSlots are a
// wheel slot index (level<<wheelBits | slot).
const (
	whereNone     = 0xFFFD // not tracked by location (heap/pooled)
	whereReady    = 0xFFFE // in the wheel's sorted ready run
	whereOverflow = 0xFFFF // in the wheel's overflow list
)

// nodePool is an intrusive free list of nodes, linked through next.
type nodePool struct {
	free *node
}

func (p *nodePool) get() *node {
	if n := p.free; n != nil {
		p.free = n.next
		n.next = nil
		return n
	}
	return &node{where: whereNone}
}

// put recycles a node, bumping gen so outstanding handles go stale.
func (p *nodePool) put(n *node) {
	n.gen++
	n.ev = nil
	n.prev = nil
	n.dead = false
	n.where = whereNone
	n.next = p.free
	p.free = n
}

// item pairs an event with its cached firing time, order key, and
// insertion sequence number. Time and key are captured once at Push, so
// the hot comparison path never calls back into the event — which also
// means a cancelled event's envelope can be recycled while its dead entry
// still sits in the heap: the entry's ordering fields are frozen and its
// ev pointer is never dereferenced again.
type item struct {
	ev  Event
	t   simtime.Time
	key uint64
	seq uint64
	n   *node // non-nil for cancelable entries
}

func less(a, b item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Heap is a binary min-heap Queue with hand-rolled typed sift-up/down
// (no container/heap interface boxing: Push and Pop allocate nothing
// beyond amortized slice growth). It implements Canceler with lazy
// cancellation: Cancel marks the entry dead in O(1) and dequeue skips
// corpses. The zero value is ready to use.
type Heap struct {
	items []item
	seq   uint64
	dead  int // cancelled entries still physically in items
	pool  nodePool
}

// NewHeap returns an empty binary-heap event queue.
func NewHeap() *Heap { return &Heap{} }

// Push schedules an event.
func (q *Heap) Push(ev Event) {
	q.seq++
	q.push(item{ev: ev, t: ev.Time(), key: orderKeyOf(ev), seq: q.seq})
}

// PushCancelable schedules an event and returns a cancellation handle.
func (q *Heap) PushCancelable(ev Event) Handle {
	q.seq++
	n := q.pool.get()
	n.ev = ev
	q.push(item{ev: ev, t: ev.Time(), key: orderKeyOf(ev), seq: q.seq, n: n})
	return Handle{n: n, gen: n.gen}
}

// Cancel marks a scheduled event dead. The entry stays in the heap until
// dequeue reaches it, but its event is returned to the caller now and
// never touched again.
func (q *Heap) Cancel(h Handle) (Event, bool) {
	n := h.n
	if n == nil || n.gen != h.gen || n.dead {
		return nil, false
	}
	ev := n.ev
	n.ev = nil
	n.dead = true
	q.dead++
	return ev, true
}

func (q *Heap) push(it item) {
	q.items = append(q.items, it)
	q.siftUp(len(q.items) - 1)
}

func (q *Heap) siftUp(i int) {
	it := q.items[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(it, q.items[p]) {
			break
		}
		q.items[i] = q.items[p]
		i = p
	}
	q.items[i] = it
}

func (q *Heap) siftDown(i int) {
	n := len(q.items)
	it := q.items[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(q.items[r], q.items[l]) {
			m = r
		}
		if !less(q.items[m], it) {
			break
		}
		q.items[i] = q.items[m]
		i = m
	}
	q.items[i] = it
}

// removeMin removes and returns the root entry (live or dead).
func (q *Heap) removeMin() item {
	it := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items[n] = item{}
	q.items = q.items[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return it
}

// Pop removes and returns the earliest live event, or nil if the queue is
// empty.
func (q *Heap) Pop() Event {
	for len(q.items) > 0 {
		it := q.removeMin()
		if it.n != nil {
			dead := it.n.dead
			q.pool.put(it.n)
			if dead {
				q.dead--
				continue
			}
		}
		return it.ev
	}
	return nil
}

// Peek returns the earliest live event without removing it, or nil.
func (q *Heap) Peek() Event {
	for len(q.items) > 0 {
		it := q.items[0]
		if it.n != nil && it.n.dead {
			q.removeMin()
			q.pool.put(it.n)
			q.dead--
			continue
		}
		return it.ev
	}
	return nil
}

// Len returns the number of live queued events.
func (q *Heap) Len() int { return len(q.items) - q.dead }

// Backend names an event-queue implementation. The zero value is the
// binary heap.
type Backend uint8

const (
	// BackendHeap is the binary min-heap: O(log n) per operation, the
	// safe default for any workload.
	BackendHeap Backend = iota
	// BackendWheel is the hierarchical timing wheel: O(1) schedule and
	// O(1) true cancellation, built for timer-dominated workloads.
	BackendWheel
)

// String returns the wire name of the backend.
func (b Backend) String() string {
	if b == BackendWheel {
		return "wheel"
	}
	return "heap"
}

// New returns an empty queue of the selected backend.
func New(b Backend) Canceler {
	if b == BackendWheel {
		return NewWheel()
	}
	return NewHeap()
}
