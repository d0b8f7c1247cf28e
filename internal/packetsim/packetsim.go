// Package packetsim is the packet-granularity simulator Horse is evaluated
// against — and, since the simcore rebase, a first-class engine on the
// shared simulation kernel. It runs the *same* topology and the *same*
// OpenFlow switch state as the flow-level engine, but models every packet:
// store-and-forward switching, drop-tail output queues, link serialization
// and propagation delays, and a window-based TCP sender (slow start + AIMD
// with retransmission). It exists to quantify the central trade-off the
// paper leans on (following fs-sdn): flow-level simulation gives up
// per-packet effects in exchange for orders of magnitude less work — E3
// measures both sides of that bargain on identical scenarios.
//
// The engine can also attach a control plane (the same flowsim.Controller
// interface the flow-level engine uses): a table miss becomes a
// latency-modeled PacketIn with the triggering packet buffered at the
// switch, FlowMods/MeterMods install into the shared dataplane state,
// and hard/idle timeouts expire — so reactive E1/E2-style scenarios run at
// packet granularity (E7). In hybrid runs the engine shares its kernel and
// network with a flow-level simulator and punts through a PuntSink
// instead of owning the controller.
//
// # Parallel execution
//
// With Config.Shards > 1 the engine partitions the topology
// (netgraph.PartitionK), runs one kernel loop per shard on a worker pool,
// and synchronizes conservatively on the cut's minimum propagation delay
// (simcore/shard). Every mutable entity — output port, switch state, punt
// buffer, flow sender, flow receiver — has exactly one owning shard, so
// windows run lock-free; cross-cut packet and control-message events ride
// per-shard outboxes and merge at window barriers in (time, order key,
// per-source FIFO) order. Because events carry deterministic order keys
// (simcore.OrderKey) in serial runs too, a K-shard run dispatches
// interacting events in exactly the serial order: Records() is
// byte-identical for any Shards value, including the Shards <= 1 serial
// path. Scripted topology changes execute single-threaded between windows
// (they mutate many shards' state); controllers run on shard 0 and see
// that shard's collector.
package packetsim

import (
	"context"
	"fmt"
	"io"
	"math"

	"horse/internal/dataplane"
	"horse/internal/eventq"
	"horse/internal/flowsim"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simcore"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// Packet sizes in bits.
const (
	DataPacketBits = 1500 * 8
	AckPacketBits  = 40 * 8
)

// Config parameterizes a packet-level run.
type Config struct {
	// Topology is required.
	Topology *netgraph.Topology
	// QueuePackets is the per-output-port drop-tail queue capacity
	// (default 100 packets, the classic router default). It also bounds
	// the per-switch punt buffer when a controller is attached.
	QueuePackets int
	// Miss is the switch table-miss behavior. With MissController and a
	// Controller attached, misses punt (PacketIn + buffered packet);
	// without a controller, punted packets count and drop (the E3
	// pre-installed-state baseline).
	Miss dataplane.MissBehavior
	// StatsEvery samples link utilization at this period (0 disables).
	// The sampler keeps virtual time alive, so bound Run when sampling is
	// enabled (an unbounded Run would tick forever after traffic drains —
	// the E3 methodology samples the idle tail on purpose).
	StatsEvery simtime.Duration
	// RTOMin is the minimum retransmission timeout (default 200 ms).
	RTOMin simtime.Duration
	// Links is the per-link-direction degradation registry: frames are
	// corrupted at the transmitter per the direction's model (counted as
	// PacketsCorrupted, separate from outage loss) and transmit rates
	// scale by the model's RateScale. Nil means every link is pristine;
	// hybrid runs pass the same Set to both engines. Degradation
	// composes with FailureState: a dead link loses packets outright
	// whatever its model says.
	Links *linkmodel.Set

	// Controller attaches a control plane (nil means none). The same
	// implementations that drive the flow-level engine work here.
	Controller flowsim.Controller
	// ControlLatency delays every switch↔controller message (default 1ms).
	ControlLatency simtime.Duration
	// UseCalendarQueue selects the calendar event queue (shared-kernel
	// ablation switch; ignored when Kernel is supplied).
	//
	// Deprecated: set EventQueue to eventq.BackendCalendar instead. A
	// non-default EventQueue wins when both are set.
	UseCalendarQueue bool
	// EventQueue selects the event-queue backend (heap, calendar, timing
	// wheel, or auto) for the engine's kernel and, in sharded runs, every
	// per-shard kernel. Ignored when Kernel is supplied.
	EventQueue eventq.Backend

	// Shards > 1 runs the engine on the sharded multi-core executor:
	// the topology is edge-cut partitioned into up to Shards parts, each
	// with its own event loop, synchronized on the cut's minimum
	// propagation delay. Records() is byte-identical to the serial engine
	// for any value. Ignored (serial execution) for shared-kernel /
	// hybrid runs, and when the cut admits no positive lookahead.
	Shards int
	// ShardWorkers bounds the worker pool driving shard windows (0 means
	// one worker per shard).
	ShardWorkers int
	// Balance selects the shard load-balancing mode: BalanceUniform
	// edge-cut partitions by switch count (the historical default),
	// BalanceWeighted partitions by demand-derived event-rate weights at
	// Begin, and BalanceSteal additionally migrates whole-entity ownership
	// from hot shards to idle ones at window barriers. Records() stays
	// byte-identical to the serial engine under every mode.
	Balance BalanceMode

	// Kernel attaches the engine to an externally owned simulation kernel
	// (hybrid runs). Nil means the engine creates and drives its own.
	Kernel *simcore.Kernel
	// Network attaches an externally owned data plane so engines share
	// switch state (hybrid runs). Nil means a private network.
	Network *dataplane.Network
	// PuntSink, when set, receives switch-originated control messages
	// instead of a locally attached Controller — the hybrid coupler
	// routes them into the flow-level engine's control plane, which owns
	// message application and echoes installs back via NotifyApplied.
	PuntSink func(msg openflow.Message)
}

// Simulator is a packet-level simulation run. In a sharded run one
// Simulator value exists per shard: clones share the immutable topology,
// the dataplane network, and the dense per-entity state arrays (each
// entry written only by its owning shard), while the kernel, event pool,
// collector, and outbox are per-clone. The coordinator (the value New
// returns) owns the global kernel for scripted topology changes and is
// the only clone whose Run/Finish the caller drives.
type Simulator struct {
	cfg       Config
	topo      *netgraph.Topology
	net       *dataplane.Network
	k         *simcore.Kernel
	ownKernel bool
	pool      simcore.Pool[event]

	flows []*pktFlow
	col   *stats.Collector // per-clone; merged into the coordinator at Finish

	counter uint64 // packets forwarded (per-clone; merged at Finish)

	// Dense per-link-direction state, indexed by dir (link<<1 | fromB).
	// Entries are written only by the direction's owning shard, except
	// linkEpoch, which scripted link failures bump between windows.
	ports     []*outPort
	txBits    []float64 // bits serialized onto the wire per direction
	rxBits    []float64 // bits observed arriving per direction
	lastTx    []float64 // txBits at the previous stats sample
	linkEpoch []uint64

	// dirAt maps (node, port) to the transmit direction index.
	dirAt [][]int32

	// extLoad is the external (flow-level) load per transmit direction in
	// a hybrid run; the transmitter sees only the residual capacity.
	// Hybrid runs are serial, so a plain map suffices.
	extLoad map[int32]float64

	// fstate composes overlapping scripted outages (links, switches, and
	// controller detach all nest by counting; the detach count gates the
	// control channel in standalone runs — in hybrid runs the flow
	// engine's control plane owns it) and records link changes missed
	// while detached for the reattach resync. Sharded runs mutate it only
	// between windows; in-window pendings buffer per clone.
	fstate        *dataplane.FailureState
	pendingStatus []openflow.Message

	// links is the degradation registry (never nil; empty when no model
	// is installed). Clones share it: each direction's corruption state
	// is advanced only inside its transmitter's txDone, which runs on
	// the direction's owning shard, and scripted degrade events execute
	// on the coordinator between windows.
	links *linkmodel.Set

	// Control plane state. Dense per-node state is written only by the
	// node's owning shard; the controller itself runs on shard 0.
	ctrl           flowsim.Controller
	ctx            *flowsim.Context
	punted         [][]*puntedPkt
	expiryAt       []simtime.Time  // Never = no check scheduled
	expiryTimer    []simcore.Timer // outstanding check; owner-shard writes only
	meters         []map[openflow.MeterID]*meterBucket
	statsReqAt     []simtime.Time // last PortStatsRequest per tx direction
	statsReqTxBits []float64      // tx bits at that request
	statsReqRxBits []float64      // rx bits at that request

	// Per-clone, per-flow accounting merged at Finish: PacketIns
	// triggered, and (UDP) packets resolved — delivered or dropped — with
	// the last resolution instant, which is what dates a CBR completion.
	puntsBy []int32
	udpRes  []int32
	udpLast []simtime.Time

	// liveBy counts this clone's packet births minus deaths per flow; the
	// cross-clone sum is the flow's packets still in flight anywhere.
	// finHints queues flow indices whose finalize condition may have
	// flipped, drained by the coordinator after each dispatch (serial) or
	// at window barriers (sharded) — the points where cross-clone reads
	// are safe.
	liveBy   []int32
	finHints []int32

	// Incremental-finalize state (coordinator-only). A flow whose sender
	// has quiesced, whose packets have all resolved, and whose record is
	// time-invariant is recorded immediately and its state evicted;
	// finNext/finPending reorder emissions into flow-ID order so the
	// record stream stays byte-identical to the all-at-Finish path.
	// simsAll caches allSims() for the per-dispatch drain.
	simsAll    []*Simulator
	finNext    int32
	finPending map[int32]stats.FlowRecord

	// Streaming ingestion (coordinator-only): reader, when set, pulls
	// demands in one at a time through chained evIngest events on the
	// coordinator kernel — which in sharded runs also bounds every
	// window, so no shard outruns an arrival that has not loaded yet.
	reader     traffic.Reader
	readerLast simtime.Time
	readerErr  error
	nextDemand traffic.Demand

	// Sharding. nshards <= 1 means the serial path: clones == {self}.
	// observers receive applied network-dynamics events (the public
	// Observe hook); in sharded runs the handlers — and therefore the
	// notifications — execute on the coordinator between windows.
	observers simevent.Observers

	// Progress reporting (coordinator-only state): serial runs ride a
	// kernel pre-advance hook, sharded runs report at window barriers.
	progressFn    simevent.ProgressFunc
	progressEvery simtime.Duration
	progressNext  simtime.Time

	nshards       int
	shardID       int32
	isCoordinator bool
	partOf        []int32 // node → owning shard
	clones        []*Simulator
	outbox        []outMsg
	pendingProtos []event // events scheduled before Begin (sharded runs)
	lookahead     simtime.Duration
	dispatched    uint64 // total events across kernels, set after a sharded Run

	// Controller sharding (nshards > 1). compOf labels every node with its
	// switch-graph connected component, ctrlHome maps component → owning
	// shard, and ctrlBy/ctrlCtx hold each component's controller instance
	// and its (scoped) context. The backing arrays are allocated before
	// clone construction so every clone shares them; elements mutate only
	// at single-threaded points (Begin). Single-component topologies, and
	// controllers that cannot Fork, collapse to one instance — placed on
	// the shard owning the plurality of switches instead of pinned to 0.
	compOf   []int32
	ncomp    int
	ctrlHome []int32
	ctrlBy   []flowsim.Controller
	ctrlCtx  []*flowsim.Context

	// Work stealing (coordinator-only, BalanceSteal). exec exposes
	// SetLookahead for post-migration horizon updates; lastDisp holds
	// per-shard dispatch counters at the previous barrier; stealScript,
	// when set (tests), overrides the steal policy with an explicit
	// schedule — any legal schedule yields byte-identical records.
	exec        *shardExec
	lastDisp    []uint64
	stealDelta  []uint64
	stealCool   int
	stealRound  int
	stealScript func(round int) []stealChoice

	begun    bool
	finished bool
}

// outPort is a link-direction transmitter with a drop-tail queue.
type outPort struct {
	link    *netgraph.Link
	from    netgraph.NodeID
	queue   []*packet
	busy    bool
	dropped uint64
	// txGen cancels the pending serialization-done event when a link
	// failure flushes the queue: evTxDone fires only when its stamp still
	// matches, so a transmitter restarted after recovery cannot be popped
	// early by a stale completion.
	txGen uint64
}

type packet struct {
	flow    *pktFlow
	seq     int  // data sequence number (packet index)
	ack     bool // true for ACKs
	ackSeq  int  // cumulative ACK (next expected seq)
	bits    float64
	retrans bool
}

// puntedPkt is a packet parked at a switch awaiting control-plane action.
type puntedPkt struct {
	pkt  *packet
	in   netgraph.PortNum
	miss bool // table miss (vs explicit output:controller)
}

// pktFlow is the state of one transfer, split by owner so a sharded run
// never writes a field from two shards: the sender side (source host's
// shard) and the receiver side (destination host's shard) communicate
// only through packets, and completion is assembled at Finish from the
// single-writer completion candidates — exactly the first of them a
// serial run would have hit.
type pktFlow struct {
	id      int64
	idx     int32 // dense index (id - 1)
	home    int32 // owning shard of the sender side
	demand  traffic.Demand
	packets int // total data packets to send (finite flows)

	arrival simtime.Time

	// Sender-owned state.
	started       bool // first send event fired (counts FlowsStarted once)
	srcDead       bool // source host has no attached switch
	senderStopped bool // deadline reached; no further emissions
	// deadlineDoneAt is the completion candidate the deadline path sets:
	// the first send tick at or after arrival+Duration (Never otherwise).
	deadlineDoneAt simtime.Time

	// Sender TCP state.
	tcp      bool
	cwnd     float64 // in packets
	ssthresh float64
	nextSeq  int // next new sequence to send
	sendBase int // lowest unacked seq
	dupAcks  int
	inFlight int
	rtoAt    simtime.Time
	rtoGen   uint64 // backstop: invalidates stale evRTO events
	// rto is the outstanding retransmission timer: every re-arm cancels
	// the previous event outright instead of leaving a corpse to fire as
	// a gen-stamped no-op. Written only by the sender shard.
	rto simcore.Timer

	// Receiver-owned state.
	recvNext int          // next expected seq (TCP cumulative ACK edge)
	received map[int]bool // TCP out-of-order buffer
	// recvDoneAt is the completion candidate the receiver sets when every
	// data packet has arrived (Never otherwise).
	recvDoneAt simtime.Time

	// Sender CBR state.
	cbrInterval simtime.Duration
	sentBits    float64

	// done marks a flow already recorded (and evicted) by the incremental
	// finalize path. Written only by the coordinator at drain points;
	// shard clones read it no earlier than the following window.
	done bool
}

// deadline returns the flow's absolute deadline, or Never.
func (f *pktFlow) deadline() simtime.Time {
	if f.demand.Duration <= 0 {
		return simtime.Never
	}
	return f.arrival.Add(f.demand.Duration)
}

// event kinds
type evKind uint8

const (
	evSend evKind = iota // sender may emit (CBR tick or window opened)
	evTxDone
	evArriveNode
	evRTO
	evStats
	evToSwitch
	evToController
	evExpiry
	evTimer
	evLinkChange
	evSwitchChange
	evCtrlChange
	evIngest // pull the next demand from the trace reader
	evLinkDegrade
)

// event is the pooled kernel envelope of this engine.
type event struct {
	at    simtime.Time
	kind  evKind
	sim   *Simulator
	flow  *pktFlow
	pkt   *packet
	dir   int32 // link direction (evTxDone: transmitter; evArriveNode: traveled)
	node  netgraph.NodeID
	gen   uint64
	msg   openflow.Message
	fn    func()
	link  netgraph.LinkID
	up    bool
	model linkmodel.Model
}

func (e *event) Time() simtime.Time { return e.at }

// OrderKey implements eventq.Keyed: the deterministic tie-break that makes
// dispatch order — and therefore Records() — independent of the shard
// count. Keys derive from stable entities (link direction, datapath, flow
// index), never from schedule history; events of one (kind, entity) pair
// are generated by a single shard, so FIFO order within a key is
// reproducible too.
func (e *event) OrderKey() uint64 {
	switch e.kind {
	case evLinkChange, evLinkDegrade:
		return simcore.OrderKey(simcore.ClassTopoChange, uint32(e.link))
	case evSwitchChange:
		return simcore.OrderKey(simcore.ClassTopoChange, uint32(e.node))
	case evCtrlChange:
		return simcore.OrderKey(simcore.ClassTopoChange, ^uint32(0))
	case evToSwitch:
		return simcore.OrderKey(simcore.ClassToSwitch, uint32(e.node))
	case evExpiry:
		return simcore.OrderKey(simcore.ClassExpiry, uint32(e.node))
	case evToController:
		return simcore.OrderKey(simcore.ClassToController, uint32(e.node))
	case evTimer:
		return simcore.OrderKey(simcore.ClassTimer, 0)
	case evArriveNode:
		return simcore.OrderKey(simcore.ClassData+0, uint32(e.dir))
	case evTxDone:
		return simcore.OrderKey(simcore.ClassData+1, uint32(e.dir))
	case evSend:
		return simcore.OrderKey(simcore.ClassData+2, uint32(e.flow.idx))
	case evIngest:
		// e.dir carries the flow index this ingest will assign, stamped
		// at schedule time: the ingest sorts exactly where the eager-
		// loaded evSend would have, and the evSend it schedules follows
		// it FIFO under the same key — so streamed ingestion preserves
		// the eager dispatch order event for event.
		return simcore.OrderKey(simcore.ClassData+2, uint32(e.dir))
	case evRTO:
		return simcore.OrderKey(simcore.ClassData+3, uint32(e.flow.idx))
	default: // evStats
		return simcore.OrderKey(simcore.ClassData+4, uint32(e.node))
	}
}

// Fire implements simcore.Event. After the dispatch, the serial engine
// (and, for global-kernel events, the sharded coordinator — which only
// fires between windows) drains queued finalize hints: end-of-dispatch is
// the earliest point where a flow's just-flipped completion state is
// fully written.
func (e *event) Fire() {
	s := e.sim
	s.dispatch(e)
	if s.nshards <= 1 || s.isCoordinator {
		s.drainFin()
	}
}

// Release implements simcore.Event: recycle the envelope. Generation
// stamps (pktFlow.rtoGen) checked in dispatch keep recycled envelopes from
// acting for their former flows.
func (e *event) Release() {
	s := e.sim
	*e = event{}
	s.pool.Put(e)
}

// New builds a packet-level simulator.
func New(cfg Config) *Simulator {
	if cfg.Topology == nil {
		panic("packetsim: Config.Topology is required")
	}
	if cfg.QueuePackets == 0 {
		cfg.QueuePackets = 100
	}
	if cfg.RTOMin == 0 {
		cfg.RTOMin = 200 * simtime.Millisecond
	}
	if cfg.ControlLatency == 0 {
		cfg.ControlLatency = simtime.Millisecond
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
	topo := cfg.Topology
	nDirs := 2 * topo.NumLinks()
	nNodes := topo.NumNodes()
	s := &Simulator{
		cfg:       cfg,
		topo:      topo,
		net:       net,
		k:         k,
		ownKernel: ownKernel,
		col:       stats.NewCollector(cfg.StatsEvery),

		ports:     make([]*outPort, nDirs),
		txBits:    make([]float64, nDirs),
		rxBits:    make([]float64, nDirs),
		lastTx:    make([]float64, nDirs),
		linkEpoch: make([]uint64, nDirs),
		extLoad:   make(map[int32]float64),

		fstate: dataplane.NewFailureState(topo),
		links:  cfg.Links,
		ctrl:   cfg.Controller,

		punted:         make([][]*puntedPkt, nNodes),
		expiryAt:       make([]simtime.Time, nNodes),
		expiryTimer:    make([]simcore.Timer, nNodes),
		meters:         make([]map[openflow.MeterID]*meterBucket, nNodes),
		statsReqAt:     make([]simtime.Time, nDirs),
		statsReqTxBits: make([]float64, nDirs),
		statsReqRxBits: make([]float64, nDirs),

		nshards: 1,
	}
	for i := range s.expiryAt {
		s.expiryAt[i] = simtime.Never
	}
	if s.links == nil {
		s.links = linkmodel.NewSet(1, topo.NumLinks())
	}
	// (node, port) → transmit direction index.
	s.dirAt = make([][]int32, nNodes)
	for _, l := range topo.Links() {
		s.setDir(l.A, l.APort, int32(l.ID)<<1)
		s.setDir(l.B, l.BPort, int32(l.ID)<<1|1)
	}
	s.ctx = flowsim.NewContext(s)
	s.clones = []*Simulator{s}
	s.initShards()
	return s
}

func (s *Simulator) setDir(n netgraph.NodeID, p netgraph.PortNum, dir int32) {
	row := s.dirAt[n]
	for int(p) >= len(row) {
		row = append(row, -1)
	}
	row[p] = dir
	s.dirAt[n] = row
}

// dirFrom returns the transmit direction index of (node, port), or -1.
func (s *Simulator) dirFrom(n netgraph.NodeID, p netgraph.PortNum) int32 {
	row := s.dirAt[n]
	if int(p) >= len(row) {
		return -1
	}
	return row[p]
}

// dirLink returns the link a direction index belongs to.
func (s *Simulator) dirLink(d int32) *netgraph.Link { return s.topo.Link(netgraph.LinkID(d >> 1)) }

// dirFromNode returns the transmitting endpoint of a direction.
func dirFromNode(l *netgraph.Link, d int32) netgraph.NodeID {
	if d&1 == 0 {
		return l.A
	}
	return l.B
}

// Network exposes the switch state for pre-installing rules.
func (s *Simulator) Network() *dataplane.Network { return s.net }

// Collector returns the statistics collector.
func (s *Simulator) Collector() *stats.Collector { return s.col }

// Now implements flowsim.Engine.
func (s *Simulator) Now() simtime.Time { return s.k.Now() }

// Topology implements flowsim.Engine.
func (s *Simulator) Topology() *netgraph.Topology { return s.topo }

// Kernel returns the simulation kernel driving this engine (the
// coordinator kernel of a sharded run).
func (s *Simulator) Kernel() *simcore.Kernel { return s.k }

// PacketsForwarded returns how many packet hops were simulated — the work
// metric E3 reports next to wall-clock time. Valid after Finish.
func (s *Simulator) PacketsForwarded() uint64 { return s.counter }

// EventsDispatched returns the number of kernel events fired across every
// shard — the events/sec numerator of the E9 scaling sweep. Valid after
// Run returns.
func (s *Simulator) EventsDispatched() uint64 {
	if s.dispatched > 0 {
		return s.dispatched
	}
	return s.k.Dispatched()
}

// Load schedules the demands.
func (s *Simulator) Load(tr traffic.Trace) {
	for _, d := range tr {
		s.loadOne(d)
	}
}

// loadOne admits one demand: builds its flow, grows the per-clone
// accounting arrays when the run has already begun (streamed ingestion),
// and schedules the first send. Runs on the coordinator — pre-Run, or
// between windows via evIngest.
func (s *Simulator) loadOne(d traffic.Demand) {
	f := &pktFlow{
		id:       int64(len(s.flows) + 1),
		idx:      int32(len(s.flows)),
		demand:   d,
		arrival:  d.Start,
		tcp:      d.TCP,
		cwnd:     10,
		ssthresh: math.Inf(1),
		received: make(map[int]bool),
		rtoAt:    simtime.Never,

		deadlineDoneAt: simtime.Never,
		recvDoneAt:     simtime.Never,
	}
	if math.IsInf(d.SizeBits, 1) {
		// Open-ended CBR flows run until their deadline.
		f.packets = math.MaxInt32
	} else {
		f.packets = int(math.Ceil(d.SizeBits / DataPacketBits))
		if f.packets == 0 {
			f.packets = 1
		}
	}
	if !f.tcp && d.RateBps > 0 && !math.IsInf(d.RateBps, 1) {
		f.cbrInterval = simtime.TransferTime(DataPacketBits, d.RateBps)
	}
	if s.partOf != nil {
		f.home = s.partOf[d.Src]
	}
	s.flows = append(s.flows, f)
	if s.begun {
		for _, c := range s.allSims() {
			c.puntsBy = append(c.puntsBy, 0)
			c.udpRes = append(c.udpRes, 0)
			c.udpLast = append(c.udpLast, 0)
			c.liveBy = append(c.liveBy, 0)
		}
	}
	s.sched(event{at: d.Start, kind: evSend, flow: f})
}

// SetTraceReader streams the workload in from r instead of (or after) a
// Load: exactly one demand is buffered, pulled through chained evIngest
// events on the coordinator kernel as virtual time reaches each arrival.
// Ingestion preserves the eager dispatch order exactly (see the evIngest
// order key), and in sharded runs the pending ingest bounds every window,
// so records stay byte-identical to Load of the same sequence — for
// demands that start within the run's horizon. r must yield nondecreasing
// Start times. Install before Run; a reader error stops ingestion and is
// returned by Run (or TraceErr).
func (s *Simulator) SetTraceReader(r traffic.Reader) {
	if s.begun {
		panic("packetsim: SetTraceReader after Run")
	}
	s.reader = r
}

// TraceErr reports the first trace-reader failure, if any. Shared-kernel
// drivers (hybrid) check it after the run; standalone Run returns it.
func (s *Simulator) TraceErr() error { return s.readerErr }

// pullIngest pulls the next demand and schedules its ingest event at the
// demand's start instant, stamping the flow index it will assign.
func (s *Simulator) pullIngest() {
	d, err := s.reader.Next()
	if err != nil {
		if err != io.EOF {
			s.readerErr = err
		}
		return
	}
	if d.Start < s.readerLast {
		s.readerErr = fmt.Errorf("packetsim: trace reader went backwards (%v after %v): %w",
			d.Start, s.readerLast, traffic.ErrTraceOrder)
		return
	}
	s.readerLast = d.Start
	s.nextDemand = d
	s.sched(event{at: d.Start, kind: evIngest, dir: int32(len(s.flows))})
}

// ScheduleLinkChange schedules a link failure (up=false) or recovery. On
// failure, queued and in-flight packets on both directions are lost and
// counted, the transmitters idle until recovery, and both endpoint
// switches punt PortStatus to the attached controller.
func (s *Simulator) ScheduleLinkChange(at simtime.Time, link netgraph.LinkID, up bool) {
	s.sched(event{at: at, kind: evLinkChange, link: link, up: up})
}

// ScheduleSwitchChange schedules a switch crash (up=false) or restart: a
// crash takes the attached links down, wipes the switch's OpenFlow state
// and loses its punt-parked packets; a restart brings the links back up
// with the tables still empty.
func (s *Simulator) ScheduleSwitchChange(at simtime.Time, sw netgraph.NodeID, up bool) {
	s.sched(event{at: at, kind: evSwitchChange, node: sw, up: up})
}

// ScheduleControllerChange schedules a controller detach (attached=false)
// or reattach. While detached, messages in both directions are lost; on
// reattach, parked packets re-announce themselves with fresh PacketIns.
func (s *Simulator) ScheduleControllerChange(at simtime.Time, attached bool) {
	s.sched(event{at: at, kind: evCtrlChange, up: attached})
}

// ScheduleLinkDegrade schedules a link-model change on both directions of
// a link: m non-nil installs (or replaces) the degradation model, nil
// restores the link to pristine. Degradation composes with scripted
// outages — a degraded link that fails loses packets like any dead link,
// and keeps corrupting frames once it recovers.
func (s *Simulator) ScheduleLinkDegrade(at simtime.Time, link netgraph.LinkID, m linkmodel.Model) {
	s.sched(event{at: at, kind: evLinkDegrade, link: link, model: m})
}

// Run executes until the queue drains, virtual time passes until, or ctx
// is cancelled. It returns the collector — on cancellation a partial but
// consistent one (sharded runs stop at a window barrier, so every
// delivered event's effects are published), together with ctx.Err(). Run
// may be called once, and only on a simulator that owns its kernel;
// shared-kernel engines are driven via Begin / kernel.Run / Finish.
func (s *Simulator) Run(ctx context.Context, until simtime.Time) (*stats.Collector, error) {
	if !s.ownKernel {
		panic("packetsim: Run on a shared-kernel simulator; drive the shared kernel instead")
	}
	s.Begin()
	var err error
	if s.nshards > 1 {
		err = s.runSharded(ctx, until)
	} else {
		err = s.k.RunContext(ctx, until)
	}
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
// observers run on the coordinator, between windows in sharded runs.
func (s *Simulator) Observe(fn simevent.Observer) { s.observers.Add(fn) }

// SetRecordSink streams every stats.FlowRecord to sink instead of
// accumulating it in the collector. Records emit in flow-ID (load) order:
// most flows finalize — and free their state — the moment their outcome
// freezes mid-run, and Finish emits whatever remains, so the stream is
// byte-identical to what Collector().Flows() would have held, for any
// shard count. Install before Run.
func (s *Simulator) SetRecordSink(sink func(stats.FlowRecord)) {
	s.col.SetFlowSink(sink)
}

// SetProgress arms progress reporting: fn receives a simevent.Progress at
// most once per `every` of virtual time — off the kernel pre-advance path
// in serial runs, at window barriers in sharded ones. Install before Run.
func (s *Simulator) SetProgress(every simtime.Duration, fn simevent.ProgressFunc) {
	if every <= 0 || fn == nil {
		return
	}
	if s.nshards > 1 {
		// Reported by exchange() at barriers, off the fields below.
		s.progressFn = fn
		s.progressEvery = every
		s.progressNext = simtime.Time(every)
		return
	}
	simevent.ArmProgress(s.k, every, fn)
}

// Begin starts the control plane (if attached) and arms stats sampling.
func (s *Simulator) Begin() {
	if s.begun || s.finished {
		panic("packetsim: Run called twice")
	}
	s.begun = true
	s.simsAll = s.allSims()
	for _, c := range s.simsAll {
		c.puntsBy = make([]int32, len(s.flows))
		c.udpRes = make([]int32, len(s.flows))
		c.udpLast = make([]simtime.Time, len(s.flows))
		c.liveBy = make([]int32, len(s.flows))
	}
	if s.nshards > 1 {
		// Demands are loaded: replace the uniform partition with the
		// event-rate-weighted one (when configured) before any pending
		// event is routed to an owner.
		s.rebalance()
		s.routePending()
	}
	if s.ctrl != nil {
		if s.nshards > 1 {
			// The controller is homed per connected component (scoped
			// per-component instances when it can Fork, one relocated
			// instance otherwise); Start hands out each home clone's
			// context, so After-closures captured by apps schedule
			// through that shard's own clock and routing.
			s.startControllerSharded()
		} else {
			s.ctrl.Start(s.ctx)
		}
	}
	if s.cfg.StatsEvery > 0 {
		for i := 0; i < s.nshards; i++ {
			s.sched(event{at: simtime.Time(s.cfg.StatsEvery), kind: evStats, node: netgraph.NodeID(i)})
		}
	}
	if s.reader != nil {
		s.pullIngest()
	}
}

// Finish merges the shards' collectors and accounting, records every
// flow not already emitted by the incremental finalize path, and returns
// the collector; calling it again is a no-op. Emission order is flow-ID
// order throughout: the incrementally finalized prefix already streamed
// in ID order, and this loop continues from finNext.
func (s *Simulator) Finish() *stats.Collector {
	if s.finished {
		return s.col
	}
	s.drainFin()
	s.finished = true
	s.mergeShards()
	sims := s.allSims()
	for idx := int(s.finNext); idx < len(s.flows); idx++ {
		if r, ok := s.finPending[int32(idx)]; ok {
			// Finalized early but held for ID order: emit as recorded.
			delete(s.finPending, int32(idx))
			s.addRecord(r)
			continue
		}
		s.record(s.flows[idx], sims)
	}
	s.col.EventsRun = s.EventsDispatched()
	return s.col
}

func (s *Simulator) dispatch(e *event) {
	switch e.kind {
	case evSend:
		s.trySend(e.flow)
	case evTxDone:
		s.txDone(e.dir, e.gen)
	case evArriveNode:
		if e.gen != s.linkEpoch[e.dir] {
			// The link died under the packet mid-propagation.
			s.losePacket(e.pkt)
			return
		}
		s.rxBits[e.dir] += e.pkt.bits
		l := s.dirLink(e.dir)
		peer, peerPort := l.Peer(dirFromNode(l, e.dir))
		s.arrive(e.pkt, peer, peerPort)
	case evRTO:
		// armRTO cancels before re-arming, so at most one RTO event is in
		// flight per flow and the firing one is what f.rto points at.
		e.flow.rto = simcore.Timer{}
		if e.flow.rtoGen == e.gen && !e.flow.srcDead && !e.flow.senderStopped {
			s.handleRTO(e.flow)
		}
	case evStats:
		s.sampleStats()
		s.sched(event{at: s.k.Now().Add(s.cfg.StatsEvery), kind: evStats, node: e.node})
	case evToSwitch:
		s.handleToSwitch(e.msg)
	case evToController:
		if s.fstate.ControllerDetached() {
			// The channel broke while the message was in flight: it is
			// lost at delivery. A lost PortStatus still resyncs on
			// reattach (the link change it announced goes pending).
			s.notePending(e.msg)
			return
		}
		if s.nshards > 1 && len(s.ctrlBy) > 0 {
			comp := s.compOf[e.node]
			if c := s.ctrlBy[comp]; c != nil {
				c.Handle(s.ctrlCtx[comp], e.msg)
				return
			}
		}
		s.ctrl.Handle(s.ctx, e.msg)
	case evExpiry:
		s.handleExpiry(e.node)
	case evTimer:
		e.fn()
	case evLinkChange:
		s.handleLinkChange(e.link, e.up)
	case evSwitchChange:
		s.handleSwitchChange(e.node, e.up)
	case evCtrlChange:
		s.handleCtrlChange(e.up)
	case evIngest:
		s.loadOne(s.nextDemand)
		s.pullIngest()
	case evLinkDegrade:
		s.handleLinkDegrade(e.link, e.model)
	}
}
