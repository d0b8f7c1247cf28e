// Package flowsim is the Horse simulation engine: a discrete-event,
// flow-level simulator of SDN traffic dynamics. It ties together the
// paper's building blocks —
//
//	data plane:    Events (eventq) + Topology (netgraph/dataplane) +
//	               Traffic statistics & network state (stats, fairshare)
//	control plane: Policy generator + Instructions + Monitoring
//	               (the Controller interface, implemented in package
//	               controller and compiled from policies in package policy)
//
// Data flows enter as events (from a traffic matrix or a generator); each
// flow is routed through the switches' OpenFlow state; the max–min
// allocator determines every flow's rate; statistics update after every
// event and are exported to the control plane via stats messages; and the
// controller reacts by sending (latency-modeled, connectionless) OpenFlow
// instructions back.
package flowsim

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/fairshare"
	"horse/internal/header"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/tcpmodel"
	"horse/internal/traffic"
)

// FlowID identifies a data flow within a simulation run.
type FlowID int64

// FlowState is the lifecycle state of a data flow.
type FlowState uint8

// Flow states.
const (
	// StateWaiting: not yet transmitting — punted to the controller,
	// flooding, or stalled on a broken path; the first packet is buffered.
	StateWaiting FlowState = iota
	// StateActive: transmitting at the allocated rate.
	StateActive
	// StateDone: finished (any outcome).
	StateDone
)

// Flow is the runtime state of one data flow.
type Flow struct {
	ID  FlowID
	Key header.FlowKey
	Src netgraph.NodeID
	Dst netgraph.NodeID

	// SizeBits is the remaining transfer volume (+Inf for open-ended).
	SizeBits float64
	// AppRateBps is the application's offered rate (+Inf for backlogged).
	AppRateBps float64
	// Deadline ends open-ended flows (simtime.Never if none).
	Deadline simtime.Time
	// TCP selects the TCP demand model.
	TCP bool

	Arrival simtime.Time

	state      FlowState
	remaining  float64
	sent       float64
	rate       float64
	lastSettle simtime.Time
	gen        uint64 // backstop: invalidates stale completion/ramp events

	// Outstanding timer handles: cancelling removes the event from the
	// queue outright (no dead corpse waiting to fire as a gen-stamped
	// no-op). The gen stamp stays as a defensive second line.
	completion simcore.Timer
	ramp       simcore.Timer

	// Path state.
	hops        []dataplane.Hop
	prevHops    []dataplane.Hop
	lastPathLen int
	entries     []*openflow.FlowEntry
	meterRefs   []dataplane.MeterRef
	resources   []fairshare.ResourceID
	waitingAt   netgraph.NodeID
	// puntedAt dedups PacketIns per switch; nil until the first punt.
	puntedAt map[netgraph.NodeID]bool

	// TCP state: flow-level AIMD over the offered demand.
	txStart   simtime.Time // when transmission (re)started
	demandCap float64      // congestion-window cap in bits/second
	caMode    bool         // true after the first loss episode (additive increase)
	ramping   bool
	// pathLoss is the end-to-end frame-loss probability along the current
	// path from installed link models; it caps TCP demand via MathisCap.
	pathLoss float64

	punts       int
	pathChanges int
}

// State returns the flow's lifecycle state.
func (f *Flow) State() FlowState { return f.state }

// Rate returns the current allocated rate in bits/second.
func (f *Flow) Rate() float64 { return f.rate }

// Sent returns the bits transferred so far (settled; current to the last
// event that touched the flow).
func (f *Flow) Sent() float64 { return f.sent }

// Path returns the switch hops of the current path (nil while waiting).
func (f *Flow) Path() []dataplane.Hop { return f.hops }

// Controller is the control-plane logic attached to a simulation: the
// paper's lightweight modular "policy generator". Start runs before any
// traffic; Handle receives every switch-to-controller message after the
// control-latency delay.
type Controller interface {
	Start(ctx *Context)
	Handle(ctx *Context, msg openflow.Message)
}

// Forker is an optional Controller capability used by the sharded packet
// engine to partition control-plane state per connected component: Fork
// returns an independent instance equivalent to a freshly constructed one
// (no shared mutable state with the receiver), or nil when this
// controller cannot fork. A controller should declare Fork only when its
// reactions are component-local up to idempotent re-installs: each forked
// instance runs under a scoped Context that silently drops sends to
// switches outside its component, and the union of the instances'
// surviving messages must equal the multiset a single serial instance
// would have produced.
type Forker interface {
	Controller
	Fork() Controller
}

// NopController is a Controller that does nothing (pure proactive
// pre-installed state or drop-everything runs).
type NopController struct{}

// Start implements Controller.
func (NopController) Start(*Context) {}

// Handle implements Controller.
func (NopController) Handle(*Context, openflow.Message) {}

// Config parameterizes a Simulator.
type Config struct {
	// Topology is required.
	Topology *netgraph.Topology
	// Controller is the control plane (nil means NopController).
	Controller Controller
	// Miss is the table-miss behavior of every switch.
	Miss dataplane.MissBehavior
	// ControlLatency delays every switch↔controller message (default 1ms).
	ControlLatency simtime.Duration
	// TCP parameterizes the TCP model.
	TCP tcpmodel.Params
	// StatsEvery samples link utilization at this period (0 disables).
	StatsEvery simtime.Duration
	// FullRecompute disables incremental fair-share solving (E6 ablation).
	FullRecompute bool
	// UseCalendarQueue selects the calendar event queue (E6 ablation).
	//
	// Deprecated: set EventQueue to eventq.BackendCalendar instead. A
	// non-default EventQueue wins when both are set.
	UseCalendarQueue bool
	// EventQueue selects the kernel's event-queue backend (heap, calendar,
	// timing wheel, or auto). Ignored when Kernel is set.
	EventQueue eventq.Backend
	// RateEpsilon is the relative rate-change threshold below which rate
	// changes do not reschedule events (default 1%).
	RateEpsilon float64
	// Links is the per-link-direction degradation registry (nil means
	// every link is pristine). Installed models shape the fluid view two
	// ways: LossRate caps TCP demand through tcpmodel.MathisCap, and
	// RateScale scales the direction's fair-share capacity (re-applied
	// every Model.StepEvery for time-varying models). A hybrid run passes
	// the same Set to both engines so they see one channel; it composes
	// with FailureState — a dead link has capacity 0 whatever its model
	// says.
	Links *linkmodel.Set

	// Shards > 1 fans the settle scan of the rate-shift drain — the
	// per-flow transferred-bits computation after every fair-share
	// re-solve — across a worker pool of that size. The solve itself and
	// the apply pass stay serial (they mutate shared allocator, ledger,
	// and switch-entry state), so results are bit-identical to the
	// serial path for any value; the win shows on drains touching
	// thousands of flows (shared-fabric churn, E6-style workloads).
	Shards int

	// Kernel attaches the simulator to an externally owned simulation
	// kernel so several engines share one virtual clock (hybrid runs).
	// Nil means the simulator creates and drives its own kernel, and Run
	// works as usual; with an external kernel the owner calls Begin,
	// drives the kernel, then calls Finish.
	Kernel *simcore.Kernel
	// Network attaches an externally owned data plane so several engines
	// share switch state (hybrid runs). Nil means a private network.
	Network *dataplane.Network
	// OnApply, when set, observes every controller→switch message after
	// it has been applied to the network — the hook a co-resident packet
	// engine uses to retry punted packets once rules install.
	OnApply func(openflow.Message)
	// OnRateShift, when set, is called after a fair-share drain with the
	// deduplicated resource IDs whose aggregate allocation shifted by
	// more than RateEpsilon. The hybrid coupler uses it to re-derive the
	// residual link capacity the packet engine sees.
	OnRateShift func(resources []fairshare.ResourceID)
	// OnLinkChange, when set, observes every applied link state change —
	// the hook the hybrid coupler uses to flush the packet engine's
	// dead-link queues under the shared clock.
	OnLinkChange func(link netgraph.LinkID, up bool)
	// OnLinkDegrade, when set, observes every applied link-model change
	// (m is nil for a restore) — for co-resident engines that keep their
	// own view of the degradation registry. Hybrid runs don't need it:
	// both engines read one shared Set.
	OnLinkDegrade func(link netgraph.LinkID, m linkmodel.Model)
	// OnSwitchChange, when set, observes every applied switch
	// crash/restart, after its link changes (which fire OnLinkChange).
	OnSwitchChange func(sw netgraph.NodeID, up bool)
	// OnControllerChange, when set, observes controller detach/reattach —
	// the hook a co-resident packet engine uses to re-announce parked
	// packets once the control channel returns.
	OnControllerChange func(attached bool)
}

type evKind uint8

const (
	evArrival evKind = iota
	evComplete
	evRamp
	evToSwitch
	evToController
	evLinkChange
	evStatsTick
	evTimer
	evExpiry
	evResolveBatch
	evSwitchChange
	evCtrlChange
	evLinkDegrade
)

type event struct {
	at   simtime.Time
	kind evKind
	sim  *Simulator

	flow   *Flow
	gen    uint64
	demand traffic.Demand
	msg    openflow.Message
	sw     netgraph.NodeID
	link   netgraph.LinkID
	up     bool
	// chain marks a reader-pulled arrival: firing it pulls the next
	// demand from the trace reader (exactly one chained arrival is
	// outstanding at a time).
	chain bool
	fn    func()
	model linkmodel.Model
}

func (e *event) Time() simtime.Time { return e.at }

// OrderKey implements eventq.Keyed with the kernel-wide class scheme
// (simcore.OrderKey). Control-plane kinds use the same classes and
// entities as the packet engine's, which pins the cross-engine dispatch
// order of hybrid runs: a FlowMod delivery scheduled by this engine
// sorts against the packet engine's same-instant data events exactly
// where a standalone packet run would sort its own delivery.
func (e *event) OrderKey() uint64 {
	switch e.kind {
	case evLinkChange, evLinkDegrade:
		return simcore.OrderKey(simcore.ClassTopoChange, uint32(e.link))
	case evSwitchChange:
		return simcore.OrderKey(simcore.ClassTopoChange, uint32(e.sw))
	case evCtrlChange:
		return simcore.OrderKey(simcore.ClassTopoChange, ^uint32(0))
	case evToSwitch:
		return simcore.OrderKey(simcore.ClassToSwitch, uint32(e.msg.Datapath()))
	case evExpiry:
		return simcore.OrderKey(simcore.ClassExpiry, uint32(e.sw))
	case evToController:
		return simcore.OrderKey(simcore.ClassToController, uint32(e.msg.Datapath()))
	case evTimer:
		return simcore.OrderKey(simcore.ClassTimer, 0)
	case evArrival:
		return simcore.OrderKey(simcore.ClassData+0, 0)
	case evComplete:
		return simcore.OrderKey(simcore.ClassData+1, uint32(e.flow.ID))
	case evRamp:
		return simcore.OrderKey(simcore.ClassData+2, uint32(e.flow.ID))
	case evResolveBatch:
		return simcore.OrderKey(simcore.ClassData+3, 0)
	default: // evStatsTick
		return simcore.OrderKey(simcore.ClassData+4, 0)
	}
}

// Fire implements simcore.Event: execute on dispatch.
func (e *event) Fire() {
	s := e.sim
	s.col.EventsRun++
	s.dispatch(e)
}

// Release implements simcore.Event: recycle the envelope. Stale-event
// safety comes from the generation stamps (Flow.gen) checked in dispatch,
// so a recycled envelope can never act for its former flow.
func (e *event) Release() {
	s := e.sim
	*e = event{}
	s.pool.Put(e)
}

// sched schedules a pooled copy of proto on the kernel.
func (s *Simulator) sched(proto event) {
	e := s.pool.Get()
	*e = proto
	e.sim = s
	s.k.Schedule(e)
}

// schedTimer schedules a pooled copy of proto as a cancelable timer.
func (s *Simulator) schedTimer(proto event) simcore.Timer {
	e := s.pool.Get()
	*e = proto
	e.sim = s
	return s.k.ScheduleCancelable(e)
}

// resLedger tracks cumulative bits and the current aggregate rate of one
// resource (link direction), backing port counters and stats replies.
type resLedger struct {
	bits float64
	rate float64
	last simtime.Time
}

func (l *resLedger) settle(now simtime.Time) {
	if now > l.last {
		l.bits += l.rate * now.Sub(l.last).Seconds()
		l.last = now
	}
}

// ledger returns the ledger of a link-direction resource, or nil for a
// meter resource.
func (s *Simulator) ledger(r fairshare.ResourceID) *resLedger {
	if r >= fairshare.ResourceID(len(s.ledgers)) {
		return nil
	}
	return &s.ledgers[r]
}

// Simulator is a Horse simulation run. Create with New, feed with Load /
// InjectAt / ScheduleLinkChange, execute with Run.
type Simulator struct {
	cfg       Config
	topo      *netgraph.Topology
	net       *dataplane.Network
	k         *simcore.Kernel
	ownKernel bool
	pool      simcore.Pool[event]

	alloc  *fairshare.Allocator
	flows  map[FlowID]*Flow
	nextID FlowID

	// waiting flows parked at a switch; flowsAt, indexed by node ID,
	// holds active flows by traversed switch for re-resolution on state
	// changes.
	waiting map[netgraph.NodeID]map[FlowID]*Flow
	flowsAt []map[FlowID]*Flow

	// ledgers is indexed by link-direction resource (link<<1|forward).
	// Meters keep none: no port counter reads them.
	ledgers []resLedger
	col     *stats.Collector
	ctrl    Controller
	ctx     *Context

	// batched re-resolution
	dirtyFlows   map[FlowID]*Flow
	batchPending bool

	// per-switch scheduled expiry instants, to avoid duplicate events;
	// expiryTimer holds the outstanding check so a reschedule cancels it
	// instead of stacking a second event beside it.
	expiryAt    map[netgraph.NodeID]simtime.Time
	expiryTimer map[netgraph.NodeID]simcore.Timer

	// allocDirty defers fair-share re-solving: events at the same virtual
	// instant (an epoch's worth of arrivals, say) trigger one solve when
	// time advances, not one per event. The kernel drains it through the
	// registered pre-advance hook.
	allocDirty bool

	// links is the degradation-model registry (never nil after New); a
	// hybrid run shares it with the packet engine. modelGen invalidates
	// outstanding rate-step timers when a link's model changes.
	links    *linkmodel.Set
	modelGen map[netgraph.LinkID]uint64

	// fstate composes overlapping scripted outages (links, switches, and
	// controller detach all nest by counting) and records the link
	// changes a detached controller missed, so reattach can
	// resynchronize its topology view with current-state PortStatus.
	fstate *dataplane.FailureState

	// shiftPending accumulates resources whose membership changed outside
	// a solve (flow activate/deactivate) so OnRateShift still reports
	// them; shiftScratch is the reusable dedup buffer.
	shiftPending []fairshare.ResourceID
	shiftScratch []fairshare.ResourceID

	// observers receive applied network-dynamics events (the public
	// Observe hook).
	observers simevent.Observers

	// reader, when set, streams demands in one at a time (bounded-memory
	// ingestion): exactly one chained arrival event is outstanding, and
	// firing it pulls the next demand. readerLast enforces the
	// nondecreasing-Start contract; readerErr holds the first reader
	// failure (ingestion stops; Run surfaces it).
	reader     traffic.Reader
	readerLast simtime.Time
	readerErr  error

	begun    bool
	finished bool
}

// New builds a simulator over the configured topology.
func New(cfg Config) *Simulator {
	if cfg.Topology == nil {
		panic("flowsim: Config.Topology is required")
	}
	if cfg.Controller == nil {
		cfg.Controller = NopController{}
	}
	if cfg.ControlLatency == 0 {
		cfg.ControlLatency = simtime.Millisecond
	}
	if cfg.TCP.RTT == 0 {
		cfg.TCP = tcpmodel.DefaultParams()
	}
	if cfg.RateEpsilon == 0 {
		cfg.RateEpsilon = 0.01
	}
	k := cfg.Kernel
	ownKernel := k == nil
	if ownKernel {
		k = simcore.New(simcore.Config{Backend: cfg.EventQueue, UseCalendarQueue: cfg.UseCalendarQueue})
	}
	net := cfg.Network
	if net == nil {
		net = dataplane.NewNetwork(cfg.Topology, cfg.Miss)
	}
	s := &Simulator{
		cfg:         cfg,
		topo:        cfg.Topology,
		net:         net,
		k:           k,
		ownKernel:   ownKernel,
		alloc:       fairshare.New(),
		flows:       make(map[FlowID]*Flow),
		waiting:     make(map[netgraph.NodeID]map[FlowID]*Flow),
		flowsAt:     make([]map[FlowID]*Flow, cfg.Topology.NumNodes()),
		ledgers:     make([]resLedger, 2*cfg.Topology.NumLinks()),
		col:         stats.NewCollector(cfg.StatsEvery),
		ctrl:        cfg.Controller,
		dirtyFlows:  make(map[FlowID]*Flow),
		expiryAt:    make(map[netgraph.NodeID]simtime.Time),
		expiryTimer: make(map[netgraph.NodeID]simcore.Timer),
		fstate:      dataplane.NewFailureState(cfg.Topology),
		links:       cfg.Links,
		modelGen:    make(map[netgraph.LinkID]uint64),
	}
	if s.links == nil {
		s.links = linkmodel.NewSet(1, len(cfg.Topology.Links()))
	}
	s.alloc.Epsilon = cfg.RateEpsilon
	s.ctx = NewContext(s)
	// The kernel settles deferred fair-share work exactly when virtual
	// time would advance, so all events at one instant share a solve.
	s.k.AddPreAdvance(func() bool { return s.allocDirty }, s.drainAlloc)
	// Declare every link direction to the allocator. A model installed
	// before the run scales the initial capacity too.
	for _, l := range s.topo.Links() {
		for _, fwd := range []bool{true, false} {
			s.alloc.SetCapacity(linkResource(l.ID, fwd), l.BandwidthBps*s.links.RateScale(l.ID, fwd, 0))
		}
		s.armRateStep(l.ID)
	}
	return s
}

// Network exposes the data-plane state (switch tables), mainly for tests
// and the packet-level comparator.
func (s *Simulator) Network() *dataplane.Network { return s.net }

// Collector returns the statistics collector.
func (s *Simulator) Collector() *stats.Collector { return s.col }

// Now returns the current virtual time.
func (s *Simulator) Now() simtime.Time { return s.k.Now() }

// Topology returns the simulated topology.
func (s *Simulator) Topology() *netgraph.Topology { return s.topo }

// Kernel returns the simulation kernel driving this simulator.
func (s *Simulator) Kernel() *simcore.Kernel { return s.k }

// Flow returns an unfinished flow by ID. It returns nil for an unknown
// flow and for one that has finalized: a finished flow's state is evicted
// at once, and its record lives on in the collector.
func (s *Simulator) Flow(id FlowID) *Flow { return s.flows[id] }

// Allocator exposes the bandwidth allocator (read-mostly; used by stats
// sampling and tests).
func (s *Simulator) Allocator() *fairshare.Allocator { return s.alloc }

// meterResourceBase tags meter resources; anything below it is a link
// direction encoded as link<<1|forward.
const meterResourceBase = fairshare.ResourceID(1) << 40

func linkResource(l netgraph.LinkID, forward bool) fairshare.ResourceID {
	r := fairshare.ResourceID(l) << 1
	if forward {
		r |= 1
	}
	return r
}

func meterResource(sw netgraph.NodeID, m openflow.MeterID) fairshare.ResourceID {
	return meterResourceBase | fairshare.ResourceID(sw)<<24 | fairshare.ResourceID(m)
}

// ResourceLinkDir decodes a fair-share resource ID back to the link
// direction it stands for; ok is false for non-link (meter) resources.
// The hybrid coupler uses it to turn OnRateShift notifications into
// per-link residual capacities.
func ResourceLinkDir(r fairshare.ResourceID) (link netgraph.LinkID, forward bool, ok bool) {
	if r >= meterResourceBase {
		return 0, false, false
	}
	return netgraph.LinkID(r >> 1), r&1 == 1, true
}

// LinkRateBps returns the aggregate flow-level rate currently allocated on
// one link direction.
func (s *Simulator) LinkRateBps(l netgraph.LinkID, forward bool) float64 {
	return s.alloc.ResourceUsage(linkResource(l, forward))
}

// Load schedules every demand in the trace.
func (s *Simulator) Load(tr traffic.Trace) {
	for _, d := range tr {
		s.InjectAt(d)
	}
}

// InjectAt schedules one demand at its start time.
func (s *Simulator) InjectAt(d traffic.Demand) {
	s.sched(event{at: d.Start, kind: evArrival, demand: d})
}

// SetTraceReader streams the workload in from r instead of (or in
// addition to) Load: demands are pulled one at a time as virtual time
// reaches them, so arbitrarily long traces ingest with one demand
// buffered. r must yield nondecreasing Start times. Because every
// arrival — eager or streamed — carries the same order key and arrivals
// dispatch FIFO among themselves, a streamed run's records are
// byte-identical to Load of the same sequence. Install before Run; a
// reader error stops ingestion and is returned by Run (or TraceErr).
func (s *Simulator) SetTraceReader(r traffic.Reader) {
	if s.begun {
		panic("flowsim: SetTraceReader after Run")
	}
	s.reader = r
}

// TraceErr reports the first trace-reader failure, if any. Shared-kernel
// drivers (hybrid) check it after the run; standalone Run returns it.
func (s *Simulator) TraceErr() error { return s.readerErr }

// pullArrival pulls the next demand from the trace reader and schedules
// it as the single outstanding chained arrival.
func (s *Simulator) pullArrival() {
	d, err := s.reader.Next()
	if err != nil {
		if err != io.EOF {
			s.readerErr = err
		}
		return
	}
	if d.Start < s.readerLast {
		s.readerErr = fmt.Errorf("flowsim: trace reader went backwards (%v after %v): %w",
			d.Start, s.readerLast, traffic.ErrTraceOrder)
		return
	}
	s.readerLast = d.Start
	s.sched(event{at: d.Start, kind: evArrival, demand: d, chain: true})
}

// ScheduleLinkChange schedules a link failure (up=false) or recovery.
func (s *Simulator) ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool) {
	s.sched(event{at: at, kind: evLinkChange, link: link, up: up})
}

// ScheduleSwitchChange schedules a switch crash (up=false) or restart. A
// crash takes every attached link down and wipes the switch's OpenFlow
// state; a restart brings the links back with the tables still empty, so
// the controller must re-program it.
func (s *Simulator) ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool) {
	s.sched(event{at: at, kind: evSwitchChange, sw: sw, up: up})
}

// ScheduleLinkDegrade schedules a link-model change: m installs a
// degradation model on both directions of the link at `at` (nil restores
// the pristine link). Orthogonal to ScheduleLinkChange — FailureState
// still decides up/down, and the model shapes traffic only while the
// link is up.
func (s *Simulator) ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model) {
	s.sched(event{at: at, kind: evLinkDegrade, link: link, model: m})
}

// ScheduleControllerChange schedules a controller detach (attached=false)
// or reattach. While detached, messages in both directions are lost; on
// reattach, waiting flows re-announce themselves with fresh PacketIns
// (modeling switches re-punting after the control channel returns).
func (s *Simulator) ScheduleControllerChange(at simtime.Time, attached bool) {
	s.sched(event{at: at, kind: evCtrlChange, up: attached})
}

// Run executes the simulation until the event queue drains, virtual time
// exceeds `until` (use simtime.Never for no bound), or ctx is cancelled.
// It returns the statistics collector — on cancellation a partial but
// consistent one (every unfinished flow settled to the stop instant and
// recorded), together with ctx.Err(). Run may be called once, and only on
// a simulator that owns its kernel; shared-kernel simulators are driven
// by their owner via Begin / kernel.Run / Finish.
func (s *Simulator) Run(ctx context.Context, until simtime.Time) (*stats.Collector, error) {
	if !s.ownKernel {
		panic("flowsim: Run on a shared-kernel simulator; drive the shared kernel instead")
	}
	s.Begin()
	err := s.k.RunContext(ctx, until)
	col := s.Finish()
	if err == nil {
		err = s.readerErr
	}
	return col, err
}

// RunUntil is Run without a lifecycle: no cancellation, no error.
//
// Deprecated: use Run with a context.
func (s *Simulator) RunUntil(until simtime.Time) *stats.Collector {
	col, _ := s.Run(context.Background(), until)
	return col
}

// Observe registers an observer of applied network dynamics (link and
// switch state flips, controller detach/reattach). Register before Run;
// observers run synchronously at the instant a change takes effect.
func (s *Simulator) Observe(fn simevent.Observer) { s.observers.Add(fn) }

// SetRecordSink streams every stats.FlowRecord to sink the moment the
// flow finalizes, in exactly the order the collector would have
// accumulated them — so a multi-million-flow run completes with O(1)
// record memory (Collector().Flows() stays empty). Install before Run.
func (s *Simulator) SetRecordSink(sink func(stats.FlowRecord)) { s.col.SetFlowSink(sink) }

// SetProgress arms progress reporting: fn receives a simevent.Progress at
// most once per `every` of virtual time, driven off the kernel's
// pre-advance path so everything at the reported instant has settled.
// Install before Run.
func (s *Simulator) SetProgress(every simtime.Duration, fn simevent.ProgressFunc) {
	simevent.ArmProgress(s.k, every, fn)
}

// Begin starts the control plane and arms statistics sampling. It is the
// first half of Run, exposed for shared-kernel (hybrid) drivers.
func (s *Simulator) Begin() {
	if s.begun || s.finished {
		panic("flowsim: Run called twice")
	}
	s.begun = true
	s.ctrl.Start(s.ctx)
	if s.cfg.StatsEvery > 0 {
		s.sched(event{at: simtime.Time(s.cfg.StatsEvery), kind: evStatsTick})
	}
	if s.reader != nil {
		s.pullArrival()
	}
}

// Finish settles and records every unfinished flow and returns the
// collector. It is the second half of Run, exposed for shared-kernel
// (hybrid) drivers; calling it again is a no-op.
func (s *Simulator) Finish() *stats.Collector {
	if !s.finished {
		s.finish()
	}
	return s.col
}

func (s *Simulator) dispatch(e *event) {
	switch e.kind {
	case evArrival:
		s.handleArrival(e.demand)
		if e.chain {
			s.pullArrival()
		}
	case evComplete:
		if e.flow.gen == e.gen && e.flow.state != StateDone {
			e.flow.completion = simcore.Timer{}
			s.handleComplete(e.flow)
		}
	case evRamp:
		// At most one ramp is in flight per flow (the ramping guard), so
		// the firing event is the one f.ramp points at.
		e.flow.ramp = simcore.Timer{}
		if e.flow.state == StateActive {
			s.handleRamp(e.flow)
		} else {
			e.flow.ramping = false
		}
	case evToSwitch:
		s.handleToSwitch(e.msg)
	case evToController:
		if s.fstate.ControllerDetached() {
			// The channel broke while the message was in flight: it is
			// lost at delivery. A lost PortStatus still resyncs on
			// reattach (the link change it announced goes pending).
			s.fstate.NotePendingStatus(e.msg)
			return
		}
		s.ctrl.Handle(s.ctx, e.msg)
	case evLinkChange:
		s.handleLinkChange(e.link, e.up)
	case evStatsTick:
		s.handleStatsTick()
	case evTimer:
		e.fn()
	case evExpiry:
		s.handleExpiry(e.sw)
	case evResolveBatch:
		s.handleResolveBatch()
	case evSwitchChange:
		s.handleSwitchChange(e.sw, e.up)
	case evCtrlChange:
		s.handleCtrlChange(e.up)
	case evLinkDegrade:
		s.handleLinkDegrade(e.link, e.model)
	}
}

// finish settles and records every unfinished flow, in flow-ID order so
// the record sequence (and any record sink) is deterministic.
func (s *Simulator) finish() {
	s.drainAlloc()
	s.finished = true
	ids := make([]FlowID, 0, len(s.flows))
	for id, f := range s.flows {
		if f.state != StateDone {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := s.flows[id]
		s.settleFlow(f)
		outcome := "running"
		if f.state == StateWaiting {
			outcome = "waiting"
		}
		s.finalize(f, false, outcome)
	}
}

// checkInvariants is used by tests: it verifies internal consistency
// between the allocator, the flow set, and the ledgers.
func (s *Simulator) checkInvariants() error {
	for id, f := range s.flows {
		if f.state == StateActive {
			if s.alloc.Rate(fairshare.FlowID(id)) < 0 {
				return fmt.Errorf("flow %d has negative allocator rate", id)
			}
			if !math.IsInf(f.remaining, 1) && f.remaining < -1 {
				return fmt.Errorf("flow %d oversent: remaining=%g", id, f.remaining)
			}
		}
	}
	return nil
}
