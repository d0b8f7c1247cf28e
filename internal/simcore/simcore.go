// Package simcore is the shared discrete-event simulation kernel under
// every Horse engine: the virtual clock, the pluggable event queue, the
// deterministic dispatch loop, and the pooled event envelopes. The
// flow-level engine (flowsim), the packet-level engine (packetsim), and
// the hybrid coupler (hybrid) all run on one Kernel, which is what lets
// several engines share a single virtual clock and interleave their events
// in strict time order — the foundation of hybrid-fidelity runs.
//
// The kernel makes three promises:
//
//   - Determinism: events fire in nondecreasing time order, breaking ties
//     by deterministic order key (eventq.Keyed) and then FIFO schedule
//     order, regardless of queue implementation. Order keys derive from
//     stable simulation entities, which is what lets the sharded executor
//     (simcore/shard) reproduce a serial run's dispatch order exactly.
//   - A Peek-free fast path: an unbounded dispatch loop only inspects the
//     queue head (Peek) when a pre-advance hook has deferred work pending;
//     otherwise it pops directly. Bounded runs pay one Peek per event to
//     honor the bound without disturbing tie order.
//   - Pre-advance hooks: an engine may defer work that must settle before
//     virtual time advances past the current instant (flowsim's batched
//     fair-share re-solve). The kernel drains pending hooks exactly when
//     the next event would move the clock, so all events at one instant
//     share a single settling pass.
package simcore

import (
	"context"

	"horse/internal/eventq"
	"horse/internal/simtime"
)

// Event is a schedulable kernel event. Fire executes it; Release returns
// it to its owner's pool, exactly once: after Fire, or when Cancel removes
// it before it fires (a cancelled event never fires). To retract a single
// event, schedule it with ScheduleCancelable and Cancel its Timer. Events
// invalidated in bulk (every in-flight event of a link whose epoch moved)
// instead carry generation stamps that Fire compares against owner state,
// so the stale ones fire as cheap no-ops.
type Event interface {
	eventq.Event
	// Fire executes the event at its firing time.
	Fire()
	// Release recycles the event after Fire returns. Implementations that
	// do not pool may make it a no-op.
	Release()
}

// Config parameterizes a Kernel.
type Config struct {
	// Backend selects the event-queue implementation (heap by default).
	Backend eventq.Backend
}

// hook is one pre-advance hook: pending reports whether deferred work
// exists; drain settles it (and may schedule new events at or after the
// current instant).
type hook struct {
	pending func() bool
	drain   func()
}

// Kernel is the simulation core: virtual clock + event queue + dispatch
// loop. Zero value is not usable; call New.
type Kernel struct {
	q          eventq.Canceler
	now        simtime.Time
	hooks      []hook
	dispatched uint64
}

// New builds a kernel over the configured queue.
func New(cfg Config) *Kernel { return &Kernel{q: eventq.New(cfg.Backend)} }

// Now returns the current virtual time.
func (k *Kernel) Now() simtime.Time { return k.now }

// Len returns the number of scheduled events.
func (k *Kernel) Len() int { return k.q.Len() }

// NextTime returns the firing time of the earliest queued event, or
// simtime.Never when the queue is empty. The sharded executor uses it to
// compute the conservative window bound across shard kernels.
func (k *Kernel) NextTime() simtime.Time {
	h := k.q.Peek()
	if h == nil {
		return simtime.Never
	}
	return h.Time()
}

// AdvanceTo moves the clock forward to t without dispatching anything (a
// no-op when t is not ahead of the clock). The sharded executor uses it to
// park the coordinator clock at barrier instants and at the run bound.
func (k *Kernel) AdvanceTo(t simtime.Time) {
	if t != simtime.Never && t > k.now {
		k.now = t
	}
}

// Dispatched returns how many events have fired — the work metric shared
// across all engines on this kernel (E7 reports it as events/sec).
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Schedule queues an event. Scheduling in the past is not checked; the
// clock never moves backwards, so such an event fires at the current
// instant (after everything already queued there).
func (k *Kernel) Schedule(ev Event) { k.q.Push(ev) }

// Timer is a handle on one cancelable scheduled event. The zero Timer is
// valid and cancels as a no-op; handles go stale once the event fires or
// is cancelled, so engines may keep a Timer per flow/switch and Cancel it
// unconditionally. Timers are value types and allocate nothing (queue
// nodes are pooled).
type Timer struct{ h eventq.Handle }

// ScheduleCancelable queues an event and returns a Timer that can remove
// it before it fires — on the wheel in O(1), on the heap by marking the
// entry dead without ever touching the event again.
func (k *Kernel) ScheduleCancelable(ev Event) Timer {
	return Timer{h: k.q.PushCancelable(ev)}
}

// Cancel removes a cancelable scheduled event. It returns true when the
// event was still pending; the event has then been released and will
// never fire. A zero or stale Timer — the event already fired or was
// already cancelled — is a safe no-op returning false.
func (k *Kernel) Cancel(t Timer) bool {
	ev, ok := k.q.Cancel(t.h)
	if ok {
		ev.(Event).Release()
	}
	return ok
}

// AddPreAdvance registers a pre-advance hook. Hooks run — in registration
// order — whenever the next event would advance the clock (or the queue is
// empty) while pending() reports deferred work. drain() may schedule new
// events, including at the current instant; the kernel re-examines the
// queue after every drain pass.
func (k *Kernel) AddPreAdvance(pending func() bool, drain func()) {
	k.hooks = append(k.hooks, hook{pending: pending, drain: drain})
}

func (k *Kernel) anyPending() bool {
	for i := range k.hooks {
		if k.hooks[i].pending() {
			return true
		}
	}
	return false
}

func (k *Kernel) drainHooks() {
	for i := range k.hooks {
		if k.hooks[i].pending() {
			k.hooks[i].drain()
		}
	}
}

// Run executes events until the queue drains or the next event lies beyond
// until (use simtime.Never for no bound). On the time bound the clock
// advances to until and the out-of-bound event stays queued, so Run may be
// called repeatedly with increasing bounds to step a simulation — the
// window loop of the sharded executor. Leaving the event in the queue (as
// opposed to popping and staging it) keeps its (time, key, seq) position
// intact, so stepping never perturbs tie order.
func (k *Kernel) Run(until simtime.Time) {
	for {
		ev := k.next(until)
		if ev == nil {
			return
		}
		if t := ev.Time(); t > k.now {
			k.now = t
		}
		k.dispatched++
		ev.Fire()
		ev.Release()
	}
}

// RunContext is Run with cooperative cancellation: the dispatch loop
// polls ctx.Done() every ctxPollEvery dispatches and returns ctx.Err()
// when the context is cancelled or past its deadline, leaving the queue
// (and the clock) exactly where the last dispatched event put them — the
// caller can settle partial results or resume with another Run. A context
// that can never be cancelled (context.Background) takes the plain Run
// fast path.
func (k *Kernel) RunContext(ctx context.Context, until simtime.Time) error {
	done := ctx.Done()
	if done == nil {
		k.Run(until)
		return nil
	}
	for {
		for i := 0; i < ctxPollEvery; i++ {
			ev := k.next(until)
			if ev == nil {
				return nil
			}
			if t := ev.Time(); t > k.now {
				k.now = t
			}
			k.dispatched++
			ev.Fire()
			ev.Release()
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
}

// ctxPollEvery bounds how many events RunContext dispatches between
// cancellation polls: small enough to stop promptly (microseconds of real
// work), large enough to keep the channel poll off the per-event path.
const ctxPollEvery = 256

// next removes and returns the earliest runnable event, honoring
// pre-advance hooks: deferred work settles before the clock would advance
// (the drain may schedule events earlier than the stalled head, so the
// queue is re-examined after each pass). Returns nil when everything has
// drained or the head lies beyond the bound (the clock then parks at the
// bound). On the common unbounded path — no hook pending — this is a
// single Pop with no head inspection (the Peek-free fast path).
func (k *Kernel) next(until simtime.Time) Event {
	for {
		if k.anyPending() {
			head := k.q.Peek()
			if head == nil || head.Time() > k.now {
				k.drainHooks()
				if head == nil && k.q.Len() == 0 {
					return nil
				}
				continue
			}
		}
		if until != simtime.Never {
			head := k.q.Peek()
			if head == nil {
				return nil
			}
			if head.Time() > until {
				k.now = until
				return nil
			}
		}
		ev := k.q.Pop()
		if ev == nil {
			return nil
		}
		return ev.(Event)
	}
}

// Order classes shared by every engine on the kernel. An event's order
// key is OrderKey(class, entity): at one instant, lower classes fire
// first, and within a class the stable entity ID (link direction,
// datapath, flow index) breaks the tie. Both engines MUST use the same
// class for equivalent control-plane events — it is what keeps a hybrid
// run (where the flow engine owns the control plane) dispatch-identical
// to a standalone packet run, and what lets the sharded executor merge
// cross-shard events into exactly the serial order.
//
// Classes are ordered so that at one instant: scripted topology changes
// land first (the outage is in effect before that instant's traffic),
// then controller→switch applications, table expiries, switch→controller
// deliveries and controller timers, and finally the engines' data-plane
// events (per-engine subclasses from ClassData up).
const (
	ClassTopoChange uint64 = iota
	ClassToSwitch
	ClassExpiry
	ClassToController
	ClassTimer
	ClassData // first engine-specific data class; engines add offsets
)

// OrderKey packs an order class and a stable entity ID into an
// eventq.Keyed key.
func OrderKey(class uint64, entity uint32) uint64 {
	return class<<32 | uint64(entity)
}

// Pool recycles event envelopes so steady-state simulation allocates no
// event memory: Get returns a recycled (or new) zero-value-at-rest *T, Put
// returns one after the owner has cleared payload references. Pool is not
// goroutine-safe; each engine owns one.
type Pool[T any] struct {
	free []*T
}

// Get returns an envelope from the pool, allocating if empty.
func (p *Pool[T]) Get() *T {
	if n := len(p.free) - 1; n >= 0 {
		x := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		return x
	}
	return new(T)
}

// Put recycles an envelope. The caller must have dropped every reference
// and cleared the envelope's payload fields.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }
