package flowsim

import (
	"fmt"
	"math"
	"sort"

	"horse/internal/dataplane"
	"horse/internal/fairshare"
	"horse/internal/linkmodel"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/runner"
	"horse/internal/simcore"
	"horse/internal/simevent"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// approximate wire MTU for converting flow bytes to "packets" in OpenFlow
// counters.
const packetBits = 1500 * 8

// handleArrival creates the Flow and resolves its first path.
func (s *Simulator) handleArrival(d traffic.Demand) {
	s.nextID++
	f := &Flow{
		ID:         s.nextID,
		Key:        d.Key,
		Src:        d.Src,
		Dst:        d.Dst,
		SizeBits:   d.SizeBits,
		AppRateBps: d.RateBps,
		TCP:        d.TCP,
		Arrival:    s.k.Now(),
		remaining:  d.SizeBits,
		lastSettle: s.k.Now(),
		Deadline:   simtime.Never,
		waitingAt:  -1,
	}
	if d.Duration > 0 {
		f.Deadline = s.k.Now().Add(d.Duration)
	}
	if f.AppRateBps <= 0 {
		f.AppRateBps = math.Inf(1)
	}
	s.flows[f.ID] = f
	s.col.FlowsStarted++
	s.resolve(f)
}

// resolve walks the flow through the data plane and transitions its state
// according to the outcome.
func (s *Simulator) resolve(f *Flow) {
	res := s.net.Walk(f.Key, f.Src, f.Dst)

	// Emit PacketIns for punting switches the flow has not yet punted at
	// (a flow's buffered first packet produces one PacketIn per switch).
	for _, sw := range res.PacketIns {
		if !f.puntedAt[sw] {
			if f.puntedAt == nil {
				f.puntedAt = make(map[netgraph.NodeID]bool)
			}
			f.puntedAt[sw] = true
			f.punts++
			s.col.PacketIns++
			s.sendToController(&openflow.PacketIn{
				Switch: sw,
				InPort: inPortAt(s, f, sw),
				Key:    f.Key,
				Reason: openflow.ReasonNoMatch,
			})
		}
	}

	switch res.Terminal {
	case dataplane.Delivered:
		s.activate(f, res)
	case dataplane.Punted, dataplane.Flooded, dataplane.Stuck:
		s.park(f, res.At)
	case dataplane.Dropped:
		s.settleFlow(f)
		s.deactivate(f)
		s.finalize(f, false, "dropped")
		s.col.FlowsDropped++
	case dataplane.Looped:
		s.settleFlow(f)
		s.deactivate(f)
		s.finalize(f, false, "looped")
		s.col.FlowsLooped++
	}
}

// inPortAt returns the port on sw where the flow enters (best effort: the
// ingress port if sw is the first switch, otherwise NoPort — sufficient
// for the controller apps, which key on the flow, not the port).
func inPortAt(s *Simulator, f *Flow, sw netgraph.NodeID) netgraph.PortNum {
	at, port := s.topo.AttachedSwitch(f.Src)
	if at == sw {
		return port
	}
	return netgraph.NoPort
}

// park transitions a flow to the waiting state at a switch.
func (s *Simulator) park(f *Flow, at netgraph.NodeID) {
	s.settleFlow(f)
	s.deactivate(f)
	if f.state == StateDone {
		return
	}
	f.state = StateWaiting
	f.waitingAt = at
	if s.waiting[at] == nil {
		s.waiting[at] = make(map[FlowID]*Flow)
	}
	s.waiting[at][f.ID] = f
	// Open-ended flows still end at their deadline even while waiting.
	s.k.Cancel(f.completion)
	f.completion = simcore.Timer{}
	f.gen++
	if f.Deadline != simtime.Never {
		f.completion = s.schedTimer(event{at: f.Deadline, kind: evComplete, flow: f, gen: f.gen})
	}
}

// unpark removes a flow from the waiting index.
func (s *Simulator) unpark(f *Flow) {
	if f.waitingAt >= 0 {
		delete(s.waiting[f.waitingAt], f.ID)
		f.waitingAt = -1
	}
}

// activate installs the flow on the allocator with its resolved path.
func (s *Simulator) activate(f *Flow, res dataplane.PathResult) {
	s.settleFlow(f)
	// Tear down previous registration (path may have changed).
	wasActive := f.state == StateActive
	oldPath := f.hops
	s.deactivate(f)
	s.unpark(f)

	f.state = StateActive
	f.hops = res.Hops
	f.entries = res.Entries
	f.meterRefs = res.Meters
	f.Key = res.ExitKey
	f.lastPathLen = len(res.Hops)

	// Path changes are counted against the last transmitting path, which
	// survives park/reactivate cycles (outage reroutes count too).
	if f.prevHops != nil && !samePath(f.prevHops, res.Hops) {
		f.pathChanges++
		s.col.PathChanges++
		s.col.AddReroute(s.k.Now())
	}
	f.prevHops = res.Hops
	if !wasActive {
		f.txStart = s.k.Now()
	}
	_ = oldPath
	// The flow found a path; if its rules are later evicted it punts as a
	// fresh episode, so clear the PacketIn dedup set.
	clear(f.puntedAt)

	// Resources: every link direction along the path, the host ingress
	// link, and every meter.
	if n := len(f.hops) + 1 + len(f.meterRefs); cap(f.resources) < n {
		f.resources = make([]fairshare.ResourceID, 0, n)
	}
	f.resources = f.resources[:0]
	for _, h := range f.hops {
		fwd := h.Link.A == h.Switch
		f.resources = append(f.resources, linkResource(h.Link.ID, fwd))
	}
	// The first hop's ingress link (host → first switch) also carries the
	// flow.
	if hostLink := s.hostLink(f.Src); hostLink != nil {
		fwd := hostLink.A == f.Src
		f.resources = append(f.resources, linkResource(hostLink.ID, fwd))
	}
	for _, mr := range f.meterRefs {
		r := meterResource(mr.Switch, mr.Meter)
		if m := s.meter(mr); m != nil {
			s.alloc.SetCapacity(r, m.RateBps)
			m.Flows++
		}
		f.resources = append(f.resources, r)
	}
	s.refreshPathLoss(f)

	// Register flow-entry usage.
	for _, e := range f.entries {
		e.FlowCount++
		e.LastUsed = s.k.Now()
	}
	// Index by traversed switch for re-resolution.
	for _, h := range f.hops {
		if s.flowsAt[h.Switch] == nil {
			s.flowsAt[h.Switch] = make(map[FlowID]*Flow)
		}
		s.flowsAt[h.Switch][f.ID] = f
	}

	s.alloc.AddFlow(fairshare.FlowID(f.ID), s.currentDemand(f), f.resources)
	s.markRateShift(f.resources)
	s.recomputeAndApply()

	if f.TCP {
		s.scheduleRamp(f)
	}
	s.scheduleCompletion(f)
}

// hostLink returns the (single) link attaching a host.
func (s *Simulator) hostLink(host netgraph.NodeID) *netgraph.Link {
	sw, port := s.topo.AttachedSwitch(host)
	if sw < 0 {
		return nil
	}
	return s.topo.LinkAt(sw, port)
}

func samePath(a, b []dataplane.Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Switch != b[i].Switch || a[i].OutPort != b[i].OutPort {
			return false
		}
	}
	return true
}

// deactivate removes an active flow from the allocator and indexes without
// finalizing it. Caller must settle first.
func (s *Simulator) deactivate(f *Flow) {
	if f.state != StateActive {
		return
	}
	// Ledger: the flow's rate leaves its resources.
	s.adjustLedgers(f, -f.rate)
	f.rate = 0
	s.alloc.RemoveFlow(fairshare.FlowID(f.ID))
	s.markRateShift(f.resources)
	for _, h := range f.hops {
		delete(s.flowsAt[h.Switch], f.ID)
	}
	f.hops = nil
	f.entries = nil
	f.meterRefs = nil
	s.recomputeAndApply()
}

// currentDemand is the flow's offered load right now. TCP flows offer
// their congestion-window cap, further bounded by the Mathis throughput
// model when the path crosses lossy (degraded) links; CBR flows offer
// the application rate.
func (s *Simulator) currentDemand(f *Flow) float64 {
	if !f.TCP {
		return f.AppRateBps
	}
	if f.demandCap <= 0 {
		f.demandCap = s.cfg.TCP.InitialRate()
	}
	d := math.Min(f.AppRateBps, f.demandCap)
	if f.pathLoss > 0 {
		d = math.Min(d, s.cfg.TCP.MathisCap(f.pathLoss))
	}
	return d
}

// refreshPathLoss recomputes the flow's end-to-end frame-loss
// probability from the link models along its current path (hops plus the
// host ingress link): 1 - ∏(1 - loss_i), the survival product a frame
// faces in the packet engine.
func (s *Simulator) refreshPathLoss(f *Flow) {
	if s.links.Empty() {
		f.pathLoss = 0
		return
	}
	deliver := 1.0
	for _, h := range f.hops {
		fwd := h.Link.A == h.Switch
		deliver *= 1 - s.links.LossRate(h.Link.ID, fwd)
	}
	if hostLink := s.hostLink(f.Src); hostLink != nil {
		fwd := hostLink.A == f.Src
		deliver *= 1 - s.links.LossRate(hostLink.ID, fwd)
	}
	f.pathLoss = 1 - deliver
}

// settleFlow brings a flow's byte accounting up to now at its current rate.
func (s *Simulator) settleFlow(f *Flow) {
	if f.state == StateActive && s.k.Now() > f.lastSettle {
		bits := f.rate * s.k.Now().Sub(f.lastSettle).Seconds()
		if bits > 0 {
			f.sent += bits
			if !math.IsInf(f.remaining, 1) {
				f.remaining -= bits
				if f.remaining < 0 {
					f.remaining = 0
				}
			}
			for _, e := range f.entries {
				e.Bytes += uint64(bits / 8)
				e.Packets += uint64(bits/packetBits) + 1
				e.LastUsed = s.k.Now()
			}
		}
	}
	f.lastSettle = s.k.Now()
}

// adjustLedgers settles each of the flow's resources and adds delta to the
// resource's aggregate rate.
func (s *Simulator) adjustLedgers(f *Flow, delta float64) {
	if delta == 0 {
		return
	}
	for _, r := range f.resources {
		l := s.ledger(r)
		if l == nil {
			continue
		}
		l.settle(s.k.Now())
		l.rate += delta
		if l.rate < 0 {
			l.rate = 0
		}
	}
}

// recomputeAndApply marks the allocation state dirty. The actual solve is
// deferred to drainAlloc, which runs once per virtual instant: all events
// at the same timestamp (e.g. one replay epoch's arrivals) share a single
// re-solve. Rates are correct whenever virtual time advances, which is the
// only point at which they accrue transferred bits.
func (s *Simulator) recomputeAndApply() {
	s.allocDirty = true
}

// markRateShift records resources whose flow membership changed so the
// next drain reports them through OnRateShift even when no surviving
// flow's rate moved (e.g. the last flow on a link departed).
func (s *Simulator) markRateShift(resources []fairshare.ResourceID) {
	if s.cfg.OnRateShift == nil {
		return
	}
	s.shiftPending = append(s.shiftPending, resources...)
}

// drainAlloc re-solves the allocator and applies rate changes to flows:
// settling, ledger updates, and completion-event rescheduling.
func (s *Simulator) drainAlloc() {
	if !s.allocDirty {
		return
	}
	s.allocDirty = false
	var changed []fairshare.Changed
	switch {
	case s.cfg.FullRecompute && s.cfg.Shards > 1:
		// Sharing-graph components solve independently; fan them across
		// the same worker count the settle pool uses. Identical output to
		// RecomputeAll (the allocator stitches changes back into
		// component order), so determinism is unaffected.
		changed = s.alloc.RecomputeAllParallel(s.cfg.Shards)
	case s.cfg.FullRecompute:
		changed = s.alloc.RecomputeAll()
	default:
		changed = s.alloc.Recompute()
	}
	if len(changed) == 0 && len(s.shiftPending) == 0 {
		return
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i].ID < changed[j].ID })
	shifted := s.shiftScratch[:0]
	shifted = append(shifted, s.shiftPending...)
	s.shiftPending = s.shiftPending[:0]
	settled := s.parallelSettle(changed)
	for i, c := range changed {
		f := s.flows[FlowID(c.ID)]
		if f == nil || f.state != StateActive {
			continue
		}
		if settled != nil {
			s.applySettle(f, settled[i])
		} else {
			s.settleFlow(f)
		}
		s.adjustLedgers(f, c.NewRate-f.rate)
		f.rate = c.NewRate
		s.col.RateChanges++
		s.scheduleCompletion(f)
		// A rate change may open growth room for a TCP flow.
		s.scheduleRamp(f)
		if s.cfg.OnRateShift != nil {
			shifted = append(shifted, f.resources...)
		}
	}
	if s.cfg.OnRateShift != nil && len(shifted) > 0 {
		sort.Slice(shifted, func(i, j int) bool { return shifted[i] < shifted[j] })
		dedup := shifted[:1]
		for _, r := range shifted[1:] {
			if r != dedup[len(dedup)-1] {
				dedup = append(dedup, r)
			}
		}
		s.shiftScratch = shifted
		s.cfg.OnRateShift(dedup)
	}
}

// parallelSettleMin is the drain size below which fanning the settle scan
// out costs more than the arithmetic it parallelizes.
const parallelSettleMin = 256

// parallelSettle computes, for every changed flow, the bits it transferred
// since its last settle — the pure, per-flow half of the drain — on a
// worker pool of Config.Shards workers. Returns nil (caller settles
// serially) when the pool is not configured or the drain is small. The
// computation per flow is the exact expression settleFlow evaluates, so
// the fanned-out drain is bit-identical to the serial one; the mutating
// half (flow totals, shared switch entries, ledgers) stays with the
// caller's serial apply pass.
func (s *Simulator) parallelSettle(changed []fairshare.Changed) []float64 {
	if s.cfg.Shards <= 1 || len(changed) < parallelSettleMin {
		return nil
	}
	out := make([]float64, len(changed))
	now := s.k.Now()
	workers := s.cfg.Shards
	chunk := (len(changed) + workers - 1) / workers
	var cells []runner.Cell[struct{}]
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo >= len(changed) {
			break
		}
		if hi > len(changed) {
			hi = len(changed)
		}
		cells = append(cells, runner.Cell[struct{}]{
			ID: fmt.Sprintf("settle%d", w),
			Run: func() struct{} {
				for i := lo; i < hi; i++ {
					f := s.flows[FlowID(changed[i].ID)]
					if f == nil || f.state != StateActive || now <= f.lastSettle {
						continue
					}
					out[i] = f.rate * now.Sub(f.lastSettle).Seconds()
				}
				return struct{}{}
			},
		})
	}
	runner.Run(cells, workers)
	return out
}

// applySettle is settleFlow with the transferred bits precomputed by
// parallelSettle.
func (s *Simulator) applySettle(f *Flow, bits float64) {
	if f.state == StateActive && s.k.Now() > f.lastSettle && bits > 0 {
		f.sent += bits
		if !math.IsInf(f.remaining, 1) {
			f.remaining -= bits
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		for _, e := range f.entries {
			e.Bytes += uint64(bits / 8)
			e.Packets += uint64(bits/packetBits) + 1
			e.LastUsed = s.k.Now()
		}
	}
	f.lastSettle = s.k.Now()
}

// scheduleCompletion (re)schedules the flow's completion event based on its
// remaining volume, current rate, and deadline.
func (s *Simulator) scheduleCompletion(f *Flow) {
	s.k.Cancel(f.completion)
	f.completion = simcore.Timer{}
	f.gen++
	at := simtime.Never
	if !math.IsInf(f.remaining, 1) && f.rate > 0 {
		at = s.k.Now().Add(simtime.TransferTime(f.remaining, f.rate))
		// TransferTime truncates to nanoseconds; a sub-ns residue must
		// still complete strictly in the future or the completion event
		// would respawn at the same instant forever.
		if at <= s.k.Now() {
			at = s.k.Now() + 1
		}
	}
	if f.Deadline < at {
		at = f.Deadline
	}
	if at == simtime.Never {
		return
	}
	f.completion = s.schedTimer(event{at: at, kind: evComplete, flow: f, gen: f.gen})
}

// handleComplete ends a flow: either its volume is transferred or its
// deadline arrived.
func (s *Simulator) handleComplete(f *Flow) {
	s.settleFlow(f)
	volumeDone := !math.IsInf(f.remaining, 1) && f.remaining <= 0.5 // half-bit slack
	deadlineHit := f.Deadline != simtime.Never && s.k.Now() >= f.Deadline
	if !volumeDone && !deadlineHit {
		// Spurious wakeup (rate changed between scheduling and firing);
		// reschedule.
		s.scheduleCompletion(f)
		return
	}
	s.deactivate(f)
	s.unpark(f)
	outcome := "completed"
	completed := true
	if !volumeDone && deadlineHit && f.state == StateWaiting {
		outcome = "expired-waiting"
		completed = false
	}
	s.finalize(f, completed, outcome)
	s.col.FlowsCompleted++
}

// finalize records the flow and marks it done.
func (s *Simulator) finalize(f *Flow, completed bool, outcome string) {
	if f.state == StateDone {
		return
	}
	f.state = StateDone
	f.gen++ // backstop: kill anything the cancels below missed
	s.k.Cancel(f.completion)
	f.completion = simcore.Timer{}
	s.k.Cancel(f.ramp)
	f.ramp = simcore.Timer{}
	s.unpark(f)
	size := f.SizeBits
	if math.IsInf(size, 1) {
		size = f.sent
	}
	s.col.AddFlow(stats.FlowRecord{
		ID:        int64(f.ID),
		Arrival:   f.Arrival,
		End:       s.k.Now(),
		SizeBits:  size,
		SentBits:  f.sent,
		Completed: completed,
		Outcome:   outcome,
		PathLen:   f.lastPathLen,
		Punts:     f.punts,
	})
	// The record now lives in the collector (or has streamed out) and
	// nothing re-resolves a Done flow (markDirty and the batch runner both
	// skip them; in-flight events hold the pointer and die on the gen
	// stamp), so the flow state is reclaimed at once — the piece that
	// keeps long runs at bounded memory.
	delete(s.flows, f.ID)
	delete(s.dirtyFlows, f.ID)
}

// scheduleRamp arms the next TCP window re-evaluation one RTT out, when
// there is anything to adapt to: room to grow (the current cap binds and
// is below the application rate) or a policer on the path (which demands
// continuous probing, exactly like real TCP through a policer).
func (s *Simulator) scheduleRamp(f *Flow) {
	if f.ramping || f.state != StateActive || !f.TCP {
		return
	}
	demand := s.currentDemand(f)
	growthRoom := demand < f.AppRateBps && f.rate >= demand*0.95
	if !growthRoom && len(f.meterRefs) == 0 {
		return
	}
	// No point growing past what the path could ever carry.
	if f.demandCap >= 2*s.pathCapacity(f) && len(f.meterRefs) == 0 {
		return
	}
	f.ramping = true
	f.ramp = s.schedTimer(event{at: s.k.Now().Add(s.cfg.TCP.RTT), kind: evRamp, flow: f})
}

// pathCapacity returns the minimum link capacity along the flow's path.
func (s *Simulator) pathCapacity(f *Flow) float64 {
	min := math.Inf(1)
	for _, h := range f.hops {
		if h.Link.BandwidthBps < min {
			min = h.Link.BandwidthBps
		}
	}
	return min
}

// handleRamp evolves a TCP flow's congestion-window cap: flow-level AIMD.
// While a policer on the path is overdriven the cap halves (multiplicative
// decrease — the policer is dropping); otherwise, if the current cap binds,
// it grows — doubling in slow start, one MSS/RTT after the first loss.
func (s *Simulator) handleRamp(f *Flow) {
	f.ramping = false
	s.drainAlloc()
	s.settleFlow(f)
	if f.demandCap <= 0 {
		f.demandCap = s.cfg.TCP.InitialRate()
	}

	overdriven := false
	for _, mr := range f.meterRefs {
		r := meterResource(mr.Switch, mr.Meter)
		m := s.meter(mr)
		if m == nil {
			continue
		}
		if excess := s.alloc.DemandSum(r) - m.RateBps; excess > m.RateBps*0.001 {
			overdriven = true
			m.ThrottledBps = excess
		} else {
			m.ThrottledBps = 0
		}
	}

	initial := s.cfg.TCP.InitialRate()
	switch {
	case overdriven:
		// The policer is dropping: back off from the achieved rate.
		f.demandCap = math.Max(f.rate/2, initial)
		f.caMode = true
	case f.rate >= s.currentDemand(f)*0.95:
		// Demand-limited: grow.
		if f.caMode {
			f.demandCap += float64(s.cfg.TCP.MSS*8) / s.cfg.TCP.RTT.Seconds()
		} else {
			f.demandCap *= 2
		}
	}
	s.alloc.SetDemand(fairshare.FlowID(f.ID), s.currentDemand(f))
	s.recomputeAndApply()
	if f.state == StateActive {
		s.scheduleRamp(f)
	}
}

// meter dereferences a meter ref against the owning switch.
func (s *Simulator) meter(mr dataplane.MeterRef) *openflow.Meter {
	sw := s.net.Switches[mr.Switch]
	if sw == nil {
		return nil
	}
	return sw.Meters.Get(mr.Meter)
}

// markDirty queues a flow for batched re-resolution at the current instant.
func (s *Simulator) markDirty(f *Flow) {
	if f.state == StateDone {
		return
	}
	s.dirtyFlows[f.ID] = f
	if !s.batchPending {
		s.batchPending = true
		s.sched(event{at: s.k.Now(), kind: evResolveBatch})
	}
}

// markSwitchDirty queues every flow parked at or traversing a switch.
func (s *Simulator) markSwitchDirty(sw netgraph.NodeID) {
	for _, f := range s.waiting[sw] {
		s.markDirty(f)
	}
	for _, f := range s.flowsAt[sw] {
		s.markDirty(f)
	}
}

// handleResolveBatch re-resolves all dirty flows in ID order.
func (s *Simulator) handleResolveBatch() {
	s.batchPending = false
	if len(s.dirtyFlows) == 0 {
		return
	}
	ids := make([]FlowID, 0, len(s.dirtyFlows))
	for id := range s.dirtyFlows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	batch := s.dirtyFlows
	s.dirtyFlows = make(map[FlowID]*Flow)
	for _, id := range ids {
		f := batch[id]
		if f.state == StateDone {
			continue
		}
		s.resolve(f)
	}
}

// handleLinkChange applies a scheduled link state change. The scripted
// link state composes with switch liveness through linkDesired, so a link
// "recovering" under a crashed endpoint stays down until the switch
// restarts.
func (s *Simulator) handleLinkChange(id netgraph.LinkID, up bool) {
	s.fstate.SetLink(id, up)
	s.applyLinkChange(id, s.fstate.LinkDesired(id), -1)
}

// applyLinkChange flips a link's state (no-op when already there),
// updates capacities, notifies the controller, and re-resolves affected
// flows (modeling data-plane liveness for groups and blackholing for
// plain port rules). silent names a crashed switch that cannot emit
// PortStatus (pass -1 normally).
func (s *Simulator) applyLinkChange(id netgraph.LinkID, up bool, silent netgraph.NodeID) {
	l := s.topo.Link(id)
	if l.Up == up {
		return
	}
	s.topo.SetLinkUp(id, up)
	s.reapplyLinkCapacity(l)
	s.recomputeAndApply()

	for _, end := range []netgraph.NodeID{l.A, l.B} {
		if s.net.Switches[end] != nil {
			if end != silent {
				// A crashed (silent) switch cannot announce its own
				// ports. While detached, sendToController pends the
				// link for the reattach resync instead.
				s.sendToController(&openflow.PortStatus{Switch: end, Port: l.PortAt(end), Up: up})
			}
			s.markSwitchDirty(end)
		}
	}
	// Flows crossing the link must re-resolve (their entries may now pick
	// live group buckets, or blackhole).
	for _, f := range s.flows {
		if f.state != StateActive {
			continue
		}
		for _, h := range f.hops {
			if h.Link.ID == id {
				s.markDirty(f)
				break
			}
		}
	}
	// A recovered link can also unblock waiting flows anywhere (e.g.
	// flood reachability); cheap conservative choice: retry all waiting.
	if up {
		for _, m := range s.waiting {
			for _, f := range m {
				s.markDirty(f)
			}
		}
	}
	if s.cfg.OnLinkChange != nil {
		s.cfg.OnLinkChange(id, up)
	}
	s.observers.Notify(simevent.Observation{
		At: s.k.Now(), Kind: simevent.LinkChange, Link: id, Up: up,
	})
}

// reapplyLinkCapacity pushes a link's current effective capacity — zero
// while down, otherwise bandwidth scaled by the installed model's
// RateScale at now — into the allocator, per direction.
func (s *Simulator) reapplyLinkCapacity(l *netgraph.Link) {
	for _, fwd := range []bool{true, false} {
		c := 0.0
		if l.Up {
			c = l.BandwidthBps * s.links.RateScale(l.ID, fwd, s.k.Now())
		}
		s.alloc.SetCapacity(linkResource(l.ID, fwd), c)
	}
}

// handleLinkDegrade applies a scheduled link-model change: m installs a
// degradation model on both directions of the link (nil restores it).
// The effective capacity re-applies immediately, crossing flows refresh
// their Mathis loss caps, and time-varying models arm a rate-step timer.
// Orthogonal to operational state: a link inside a scripted outage keeps
// capacity 0 until it recovers, at which point the model's scale applies.
func (s *Simulator) handleLinkDegrade(id netgraph.LinkID, m linkmodel.Model) {
	s.links.SetLink(id, m)
	s.modelGen[id]++
	s.reapplyLinkCapacity(s.topo.Link(id))
	for _, f := range s.flows {
		if f.state != StateActive {
			continue
		}
		crosses := false
		for _, r := range f.resources {
			if link, _, ok := ResourceLinkDir(r); ok && link == id {
				crosses = true
				break
			}
		}
		if !crosses {
			continue
		}
		s.refreshPathLoss(f)
		s.alloc.SetDemand(fairshare.FlowID(f.ID), s.currentDemand(f))
	}
	s.recomputeAndApply()
	s.armRateStep(id)
	if s.cfg.OnLinkDegrade != nil {
		s.cfg.OnLinkDegrade(id, m)
	}
	s.observers.Notify(simevent.Observation{
		At: s.k.Now(), Kind: simevent.LinkDegrade, Link: id, Up: m == nil,
	})
}

// armRateStep schedules the next fair-share capacity re-application for
// a link carrying a time-varying model (AdaptiveRate), aligned to the
// model's coherence-window boundaries. The timer invalidates itself
// through modelGen when the link's model changes, and — like the stats
// tick — only reschedules while other work remains, so a lone stepping
// timer cannot keep an open-ended run alive.
func (s *Simulator) armRateStep(id netgraph.LinkID) {
	every := s.links.StepEvery(id, true)
	if b := s.links.StepEvery(id, false); b > every {
		every = b
	}
	if every <= 0 {
		return
	}
	gen := s.modelGen[id]
	at := simtime.Time((uint64(s.k.Now())/uint64(every) + 1) * uint64(every))
	s.sched(event{at: at, kind: evTimer, fn: func() {
		if s.modelGen[id] != gen {
			return
		}
		s.reapplyLinkCapacity(s.topo.Link(id))
		s.recomputeAndApply()
		if s.k.Len() > 0 {
			s.armRateStep(id)
		}
	}})
}

// handleSwitchChange applies a switch crash or restart: a crash wipes the
// switch's OpenFlow state and takes every attached link down (neighbors
// announce PortStatus; the dead switch cannot); a restart brings the links
// back up — with the tables still empty — and both ends announce.
func (s *Simulator) handleSwitchChange(sw netgraph.NodeID, up bool) {
	swState := s.net.Switches[sw]
	if swState == nil || !s.fstate.SetSwitch(sw, up) {
		return
	}
	silent := netgraph.NodeID(-1)
	if !up {
		swState.Reset()
		// The crash voids whatever the controller did (or was doing) for
		// flows punted at this switch — a FlowMod in flight dies with the
		// tables — so clear the PacketIn dedup: a post-restart punt must
		// announce itself afresh.
		for _, m := range s.waiting {
			for _, f := range m {
				delete(f.puntedAt, sw)
			}
		}
		s.markSwitchDirty(sw)
		silent = sw
	}
	for _, p := range s.topo.Node(sw).Ports() {
		l := s.topo.LinkAt(sw, p)
		if l == nil {
			continue
		}
		// LinkDesired keeps a restart from reviving a link still inside
		// its own scripted outage (and a crash from "double-failing" one).
		s.applyLinkChange(l.ID, s.fstate.LinkDesired(l.ID), silent)
	}
	if s.cfg.OnSwitchChange != nil {
		s.cfg.OnSwitchChange(sw, up)
	}
	s.observers.Notify(simevent.Observation{
		At: s.k.Now(), Kind: simevent.SwitchChange, Switch: sw, Up: up,
	})
}

// handleCtrlChange applies a controller detach or reattach. Outages nest
// by counting (FailureState.SetController), like link and switch
// failures: only the reattach matching the first detach restores the
// channel.
func (s *Simulator) handleCtrlChange(attached bool) {
	if !s.fstate.SetController(attached) {
		return // no state flip (nested, or nothing to reattach)
	}
	if attached {
		// Resync first: links that changed while detached announce their
		// CURRENT state, so PortStatus-driven controllers reconverge on
		// the truth before any re-punted PacketIns arrive.
		s.fstate.ResyncPortStatus(s.net, s.sendToController)
		// Waiting flows re-announce: their original PacketIns may have
		// been lost while detached, so clear the dedup sets and
		// re-resolve (a still-missing rule re-punts with a fresh
		// PacketIn, like a switch re-punting on reconnect).
		for _, m := range s.waiting {
			for _, f := range m {
				clear(f.puntedAt)
				s.markDirty(f)
			}
		}
	}
	if s.cfg.OnControllerChange != nil {
		s.cfg.OnControllerChange(attached)
	}
	s.observers.Notify(simevent.Observation{
		At: s.k.Now(), Kind: simevent.ControllerChange, Up: attached,
	})
}

// handleStatsTick samples link utilization and reschedules itself.
func (s *Simulator) handleStatsTick() {
	s.drainAlloc()
	for _, l := range s.topo.Links() {
		for _, fwd := range []bool{true, false} {
			r := linkResource(l.ID, fwd)
			rate := s.alloc.ResourceUsage(r)
			frac := 0.0
			if l.Up && l.BandwidthBps > 0 {
				frac = rate / l.BandwidthBps
			}
			s.col.AddLinkSample(stats.LinkSample{
				At: s.k.Now(), Link: l.ID, Forward: fwd, RateBps: rate, UsedFrac: frac,
			})
		}
	}
	// Reschedule only while the simulation still has work: a lone stats
	// tick must not keep an open-ended Run alive forever.
	if s.k.Len() > 0 {
		s.sched(event{at: s.k.Now().Add(s.cfg.StatsEvery), kind: evStatsTick})
	}
}
