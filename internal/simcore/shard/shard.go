// Package shard is the conservative parallel discrete-event executor of
// the Horse simulation kernel: it runs one simcore.Kernel per topology
// shard on a bounded worker pool, synchronizing with a null-message-free
// window barrier.
//
// The algorithm is classic synchronous conservative PDES (the per-core
// sharded-forwarder shape of ndn-dpdk, the partitioned engines of
// ACCL+-style collectives): partition the network so every mutable
// simulation entity has exactly one owning shard, give each shard its own
// event queue and kernel loop, and let shards exchange cross-cut events
// only at barriers. Safety comes from the lookahead Δ — the minimum
// latency any cross-shard event experiences (the minimum propagation
// delay over the cut, and the control latency when a control plane is
// attached). Each round:
//
//	m    := min over shards of their next event time
//	LBTS := m + Δ                  (lower bound on cross-shard time stamps)
//	every shard runs events with t < LBTS in parallel, then barriers;
//	the engine's exchange hook delivers the round's cross-shard events.
//
// An event executed in the round fires at some u ≥ m, so anything it
// sends across a cut fires at u + d ≥ m + Δ = LBTS — never inside the
// window being executed. No null messages, no rollback, no locks inside
// a window: ownership partitioning makes every in-window memory access
// single-writer, and the barrier publishes it.
//
// Scripted topology changes (link failures, switch crashes, controller
// detach) are global events: they mutate state owned by many shards, so
// they live on a coordinator kernel and execute single-threaded between
// windows, bounding each window so no shard runs past a pending global
// event. Order class ClassTopoChange makes them fire before same-instant
// shard events in serial runs too, so both execution modes agree.
//
// Determinism does NOT come from the executor alone: it requires the
// engine to stamp events with deterministic order keys (eventq.Keyed)
// and to deliver exchanged events in (time, key, per-source FIFO) order.
// Given that, a K-shard run dispatches interacting events in exactly the
// serial order — the property the packetsim Shards tests pin down.
package shard

import (
	"fmt"

	"horse/internal/runner"
	"horse/internal/simcore"
	"horse/internal/simtime"
)

// Config parameterizes an Executor.
type Config struct {
	// Lookahead is the conservative horizon Δ: no event generated by one
	// shard for another may fire sooner than Δ after the instant it was
	// generated. It must be positive; simtime.Forever means the shards
	// never exchange events (fully independent partitions) and each runs
	// to the bound in one window.
	Lookahead simtime.Duration
	// Parallel bounds the worker pool running shard windows. Zero or
	// negative means one worker per shard (capped by GOMAXPROCS inside
	// the runner pool).
	Parallel int
	// Interrupt, when non-nil, is polled between windows (and between
	// global-event batches); reporting true stops the run at the current
	// barrier — the engine's state is consistent (every started window
	// completed and its cross-shard events were delivered) but partial.
	// The coordinator clock parks at the last dispatched instant, as if
	// the queues had drained there.
	Interrupt func() bool
}

// Executor drives K shard kernels and one coordinator (global) kernel
// conservatively. Build with New, drive with Run.
type Executor struct {
	cfg      Config
	global   *simcore.Kernel
	shards   []*simcore.Kernel
	exchange func()
	cells    []runner.Cell[struct{}]
	bound    simtime.Time
}

// New builds an executor over the given kernels. global holds only
// coordinator-executed events (scripted topology changes); it may be nil
// when the engine schedules none. exchange is called after every window
// barrier (and after every global-event batch) to move the round's
// cross-shard events into their destination kernels; it runs
// single-threaded. exchange may be nil when shards never interact.
func New(cfg Config, global *simcore.Kernel, shards []*simcore.Kernel, exchange func()) *Executor {
	if cfg.Lookahead <= 0 {
		panic(fmt.Sprintf("shard: non-positive lookahead %v", cfg.Lookahead))
	}
	x := &Executor{cfg: cfg, global: global, shards: shards, exchange: exchange}
	x.cells = make([]runner.Cell[struct{}], len(shards))
	for i, k := range shards {
		k := k
		x.cells[i] = runner.Cell[struct{}]{
			ID: fmt.Sprintf("shard%d", i),
			Run: func() struct{} {
				k.Run(x.bound)
				return struct{}{}
			},
		}
	}
	return x
}

// ShardDispatched returns the per-shard dispatch counters (excluding the
// coordinator): how evenly the partition spread the event load, as the
// skew soak and the benchmark's shard-imbalance figure report it.
func (x *Executor) ShardDispatched() []uint64 {
	out := make([]uint64, len(x.shards))
	for i, k := range x.shards {
		out[i] = k.Dispatched()
	}
	return out
}

// Run executes rounds until every kernel drains or all remaining events
// lie beyond until. On return the coordinator clock is parked exactly
// where a serial kernel's clock would be: at until when the bound was
// hit, else at the time of the last event dispatched anywhere.
func (x *Executor) Run(until simtime.Time) {
	// Events generated before the run (engine setup such as a controller
	// Start hook executing on one shard) may be parked in cross-shard
	// outboxes; deliver them so the first window's bound sees them.
	x.deliver()
	for {
		if x.cfg.Interrupt != nil && x.cfg.Interrupt() {
			x.park(until, false)
			return
		}
		m := simtime.Never
		for _, k := range x.shards {
			if t := k.NextTime(); t < m {
				m = t
			}
		}
		g := simtime.Never
		if x.global != nil {
			g = x.global.NextTime()
		}

		if g <= m {
			// The earliest pending work is a global event (ties go to it:
			// ClassTopoChange fires first at an instant in serial runs
			// too). Execute the batch single-threaded, then exchange
			// whatever it scheduled.
			if g == simtime.Never {
				x.park(until, false)
				return
			}
			if g > until {
				x.park(until, true)
				return
			}
			x.global.Run(g)
			x.deliver()
			continue
		}
		if m > until {
			x.park(until, true)
			return
		}
		bound := until
		if lbts := m.Add(x.cfg.Lookahead); lbts != simtime.Never && lbts-1 < bound {
			bound = lbts - 1 // windows execute t < LBTS
		}
		if g != simtime.Never && g-1 < bound {
			bound = g - 1 // never run past a pending global event
		}
		x.bound = bound
		runner.Run(x.cells, x.parallel())
		x.deliver()
	}
}

func (x *Executor) parallel() int {
	if x.cfg.Parallel > 0 {
		return x.cfg.Parallel
	}
	return len(x.shards)
}

func (x *Executor) deliver() {
	if x.exchange != nil {
		x.exchange()
	}
}

// park settles the coordinator clock at the end of a run. boundHit means
// events remain beyond until (serial semantics: the clock parks at the
// bound); otherwise everything drained and the clock lands on the last
// dispatched instant across all shards.
func (x *Executor) park(until simtime.Time, boundHit bool) {
	if x.global == nil {
		return
	}
	if boundHit {
		x.global.AdvanceTo(until)
		return
	}
	last := simtime.Time(0)
	for _, k := range x.shards {
		if t := k.Now(); t > last {
			last = t
		}
	}
	x.global.AdvanceTo(last)
}

// Dispatched sums the dispatch counters of every kernel under the
// executor — the events/sec numerator of the E9 scaling sweep.
func (x *Executor) Dispatched() uint64 {
	n := uint64(0)
	if x.global != nil {
		n += x.global.Dispatched()
	}
	for _, k := range x.shards {
		n += k.Dispatched()
	}
	return n
}
