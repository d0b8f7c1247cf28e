package horse

import (
	"fmt"

	"horse/api/wire"
	"horse/internal/controller"
	"horse/internal/simtime"
	"horse/internal/tcpmodel"
)

// This file is the bridge between the wire protocol's serializable
// session specs (api/wire) and the functional-options builder: the
// option-spec side of the service daemon. Every spec field maps onto the
// exact With* option a local caller would write, so spec-built engines
// inherit the builder's eager validation — a bad spec fails with a typed
// *BuildError (or *wire.SpecError) before any engine state exists, which
// the daemon surfaces as a wire error at Submit time.

// SpecFidelity parses a wire fidelity name ("" defaults to Flow).
func SpecFidelity(name string) (Fidelity, error) {
	switch name {
	case "", wire.FidelityFlow:
		return Flow, nil
	case wire.FidelityPacket:
		return Packet, nil
	case wire.FidelityHybrid:
		return Hybrid, nil
	}
	return 0, &BuildError{Option: "WithFidelity", Reason: fmt.Sprintf("unknown fidelity name %q", name)}
}

// SpecController builds the controller chain a spec names (nil when the
// spec names no apps).
func SpecController(apps []wire.AppSpec) (Controller, error) {
	if len(apps) == 0 {
		return nil, nil
	}
	var chain []App
	for i, a := range apps {
		switch a.Kind {
		case wire.AppProactiveMAC:
			chain = append(chain, &controller.ProactiveMAC{})
		case wire.AppReactiveMAC:
			chain = append(chain, &controller.ReactiveMAC{IdleTimeout: simtime.Duration(a.IdleTimeoutNs)})
		case wire.AppECMP:
			chain = append(chain, &controller.ECMPLoadBalancer{})
		default:
			return nil, &BuildError{Option: "WithController", Reason: fmt.Sprintf("controller[%d]: unknown app kind %q", i, a.Kind)}
		}
	}
	return NewChain(chain...), nil
}

// SpecOptions converts a serialized option set into the equivalent
// functional options. Zero-valued spec fields yield no option, so the
// builder's defaults apply; set fields validate through the same eager
// path as hand-written options.
func SpecOptions(o wire.OptionsSpec) ([]Option, error) {
	fid, err := SpecFidelity(o.Fidelity)
	if err != nil {
		return nil, err
	}
	opts := []Option{WithFidelity(fid)}
	ctrl, err := SpecController(o.Controller)
	if err != nil {
		return nil, err
	}
	if ctrl != nil {
		opts = append(opts, WithController(ctrl))
	}
	switch o.Miss {
	case "", "drop":
		// The default.
	case "controller":
		opts = append(opts, WithMiss(MissController))
	default:
		return nil, &BuildError{Option: "WithMiss", Reason: fmt.Sprintf("unknown miss behavior %q", o.Miss)}
	}
	if o.ControlLatencyNs != 0 {
		opts = append(opts, WithControlLatency(Duration(o.ControlLatencyNs)))
	}
	if o.TCPRTTNs != 0 || o.TCPMSS != 0 || o.TCPInitialWindow != 0 {
		opts = append(opts, WithTCP(tcpmodel.Params{
			RTT:           Duration(o.TCPRTTNs),
			MSS:           o.TCPMSS,
			InitialWindow: o.TCPInitialWindow,
		}))
	}
	if o.StatsEveryNs != 0 {
		opts = append(opts, WithStatsEvery(Duration(o.StatsEveryNs)))
	}
	if o.RateEpsilon != nil {
		opts = append(opts, WithRateEpsilon(*o.RateEpsilon))
	}
	if o.FullRecompute {
		opts = append(opts, WithFullRecompute())
	}
	queue := o.EventQueue
	if o.CalendarQueue {
		// The legacy flag means event_queue "calendar"; any other
		// explicit choice contradicts it.
		if queue != "" && queue != wire.EventQueueCalendar {
			return nil, &BuildError{Option: "WithEventQueue", Reason: fmt.Sprintf("conflicts with calendar_queue (which means event_queue %q, not %q); drop one", wire.EventQueueCalendar, queue)}
		}
		queue = wire.EventQueueCalendar
	}
	switch queue {
	case "":
		// The default (heap) — no option.
	case wire.EventQueueHeap:
		opts = append(opts, WithEventQueue(EventQueueHeap))
	case wire.EventQueueWheel, wire.EventQueueCalendar, wire.EventQueueAuto:
		// "calendar" and "auto" name retired backends that the frozen v1
		// wire still accepts. Backends never change results, so both run
		// on the wheel.
		opts = append(opts, WithEventQueue(EventQueueWheel))
	default:
		return nil, &BuildError{Option: "WithEventQueue", Reason: fmt.Sprintf("unknown event queue %q", o.EventQueue)}
	}
	// shards is frozen in v1, but the Flow engine now runs serial: its
	// retired shard pool never changed results, so a flow spec's shard
	// count is accepted and runs serial. It still validates as the option
	// it replaced did.
	switch {
	case o.Shards == 0:
	case fid == Flow && o.Shards > 0:
	default:
		opts = append(opts, WithShards(o.Shards))
	}
	if o.ShardWorkers != nil {
		opts = append(opts, WithShardWorkers(*o.ShardWorkers))
	}
	// shard_balancing is frozen in v1, but every sharded packet run now
	// uses the uniform partition: the retired "weighted" and "steal" modes
	// never changed results, so all names run uniform. The field still
	// validates as the option it replaced did.
	bad := func(reason string) error { return &BuildError{Option: "options.shard_balancing", Reason: reason} }
	switch b := o.ShardBalancing; {
	case b == "":
	case b != wire.BalanceUniform && b != wire.BalanceWeighted && b != wire.BalanceSteal:
		return nil, bad(fmt.Sprintf("unknown balancing mode %q", b))
	case fid != Packet:
		return nil, bad("only the Packet engine runs the sharded executor")
	case o.Shards == 0:
		return nil, bad("balancing applies to sharded runs; set shards")
	}
	if o.QueuePackets != nil {
		opts = append(opts, WithQueuePackets(*o.QueuePackets))
	}
	if o.RTOMinNs != nil {
		opts = append(opts, WithRTOMin(Duration(*o.RTOMinNs)))
	}
	if o.PacketFraction != nil {
		opts = append(opts, WithPacketFraction(*o.PacketFraction))
	}
	if o.LinkModel != nil {
		m, err := o.LinkModel.Model("options.link_model")
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithLinkModel(m))
	}
	if o.LinkModelSeed != 0 {
		opts = append(opts, WithLinkModelSeed(o.LinkModelSeed))
	}
	// Per-link entries (OptionsSpec.LinkModelFor) reference links by node
	// name and resolve in NewFromSpec, where the topology exists.
	return opts, nil
}

// NewFromSpec builds a fully loaded engine from a serialized session
// spec: topology construction, option bridging, workload materialization
// and Load, then scenario application (after Load, so workload demands
// keep the low load-order indices — the legacy Load-then-Apply
// ordering). extra options append after the spec's, for run-lifecycle
// attachments the daemon adds (record sinks, progress hooks).
//
// The returned horizon is the spec's Until (simtime.Never when unset);
// run the engine with eng.Run(ctx, until). Errors are *BuildError,
// *wire.SpecError, or *ScenarioEventError — all validation, no partial
// engine state.
func NewFromSpec(spec *wire.SessionSpec, extra ...Option) (Engine, Time, error) {
	if spec == nil {
		return nil, 0, &BuildError{Option: "NewFromSpec", Reason: "nil SessionSpec"}
	}
	topo, err := spec.Topology.Build()
	if err != nil {
		return nil, 0, err
	}
	opts, err := SpecOptions(spec.Options)
	if err != nil {
		return nil, 0, err
	}
	for i, lm := range spec.Options.LinkModelFor {
		link, m, err := lm.Resolve(topo, i)
		if err != nil {
			return nil, 0, err
		}
		opts = append(opts, WithLinkModelFor(link, m))
	}
	opts = append(opts, extra...)
	// Streamed workloads ingest through a bounded reader option; retained
	// ones materialize the trace and Load it below.
	var tr Trace
	if spec.Workload.Stream {
		r, err := spec.Workload.Reader(topo)
		if err != nil {
			return nil, 0, err
		}
		opts = append(opts, WithTraceReader(r))
	} else {
		tr, err = spec.Workload.Trace(topo)
		if err != nil {
			return nil, 0, err
		}
	}
	tl, err := wire.Timeline(spec.Scenario, topo)
	if err != nil {
		return nil, 0, err
	}
	until := spec.Until()
	eng, err := New(topo, opts...)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		eng.Load(tr)
	}
	if tl != nil {
		if err := tl.Apply(eng, until); err != nil {
			return nil, 0, err
		}
	}
	return eng, until, nil
}
