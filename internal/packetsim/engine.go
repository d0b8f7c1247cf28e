package packetsim

import (
	"math"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simcore"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// trySend lets a flow emit as many packets as its window (TCP) or schedule
// (CBR) currently allows. Runs on the flow's sender shard.
func (s *Simulator) trySend(f *pktFlow) {
	if f.srcDead || f.senderStopped {
		return
	}
	if !f.started {
		f.started = true
		s.col.FlowsStarted++
	}
	if f.demand.Duration > 0 && s.k.Now() >= f.deadline() {
		// Deadline passed for an open-ended flow: the sender stops and
		// dates the completion candidate (the receiver side needs no
		// notification — its own candidates can only be later).
		s.senderStop(f)
		return
	}
	if f.tcp {
		for f.nextSeq < f.packets && float64(f.inFlight) < f.cwnd {
			s.emit(f, f.nextSeq, false)
			f.nextSeq++
			f.inFlight++
		}
		s.armRTO(f)
		return
	}
	// CBR: one packet now, next one an interval later.
	if f.nextSeq < f.packets {
		s.emit(f, f.nextSeq, false)
		f.nextSeq++
		if f.nextSeq < f.packets {
			interval := f.cbrInterval
			if interval <= 0 {
				interval = simtime.TransferTime(DataPacketBits, 1e9)
			}
			s.sched(event{at: s.k.Now().Add(interval), kind: evSend, flow: f})
		}
	}
}

// senderStop ends the sending side at its deadline: the completion
// candidate is dated now, emissions cease, and pending RTO timers die.
func (s *Simulator) senderStop(f *pktFlow) {
	if f.senderStopped {
		return
	}
	f.senderStopped = true
	f.deadlineDoneAt = s.k.Now()
	f.rtoGen++ // backstop
	s.k.Cancel(f.rto)
	f.rto = simcore.Timer{}
	// The deadline candidate may be the last event this flow ever sees
	// (no packets in flight): queue a finalize check.
	s.noteFin(f)
}

// emit injects a packet at the flow's source host.
func (s *Simulator) emit(f *pktFlow, seq int, retrans bool) {
	p := &packet{flow: f, seq: seq, bits: DataPacketBits, retrans: retrans}
	f.sentBits += p.bits
	if sw, _ := s.topo.AttachedSwitch(f.demand.Src); sw < 0 {
		f.srcDead = true
		return
	}
	s.col.PacketsSent++
	if retrans {
		s.col.Retransmits++
	}
	// The packet is born: live until deliver consumes it or dropPacket
	// accounts its death (every loss path funnels through one of them).
	s.liveBy[f.idx]++
	// Host NIC → switch: enqueue on the host's side of the access link.
	s.enqueue(p, s.hostDir(f.demand.Src))
}

// hostDir returns the host's transmit direction on its access link.
func (s *Simulator) hostDir(host netgraph.NodeID) int32 {
	sw, swPort := s.topo.AttachedSwitch(host)
	if sw < 0 {
		return -1
	}
	l := s.topo.LinkAt(sw, swPort)
	return s.dirFrom(host, l.PortAt(host))
}

// enqueue places a packet on an output direction's drop-tail queue and
// starts the transmitter if idle. Runs on the transmitting node's shard.
func (s *Simulator) enqueue(p *packet, dir int32) {
	if dir < 0 {
		s.dropPacket(p)
		return
	}
	op := s.ports[dir]
	if op == nil {
		l := s.dirLink(dir)
		op = &outPort{link: l, from: dirFromNode(l, dir)}
		s.ports[dir] = op
	}
	if !op.link.Up {
		// Offered to a dead link: lost until recovery (TCP senders RTO).
		s.losePacket(p)
		return
	}
	if len(op.queue) >= s.cfg.QueuePackets {
		op.dropped++
		s.dropPacket(p)
		return
	}
	op.queue = append(op.queue, p)
	if !op.busy {
		s.startTx(dir, op)
	}
}

// minResidualFrac floors the residual capacity a hybrid-coupled
// transmitter sees at 1% of line rate, so a flow-level background that
// saturates a link slows foreground packets sharply instead of freezing
// them (the allocator does not see packet flows, so they live on
// leftovers).
const minResidualFrac = 0.01

// txRate returns the transmit rate of a direction: line rate scaled by
// the direction's link model (rate adaptation) minus any flow-level load
// the hybrid coupler reported for it. RateScale is pure, so evaluating
// it per transmission start perturbs nothing.
func (s *Simulator) txRate(dir int32, op *outPort) float64 {
	bw := op.link.BandwidthBps
	if !s.links.Empty() {
		bw *= s.links.RateScale(netgraph.LinkID(dir>>1), dir&1 == 0, s.k.Now())
	}
	if len(s.extLoad) == 0 {
		return bw
	}
	full := bw
	if load, ok := s.extLoad[dir]; ok {
		bw -= load
		if min := full * minResidualFrac; bw < min {
			bw = min
		}
	}
	return bw
}

// SetExternalLoad informs the transmitter for one link direction that an
// external (flow-level) load occupies the link, so serialization sees only
// the residual capacity. The hybrid coupler calls it whenever fair-share
// rates shift by more than the configured epsilon; bps <= 0 clears the
// load. In-flight serializations keep their old finish time; the next
// packet sees the new rate.
func (s *Simulator) SetExternalLoad(link netgraph.LinkID, forward bool, bps float64) {
	dir := int32(link) << 1
	if !forward {
		dir |= 1
	}
	if bps <= 0 {
		delete(s.extLoad, dir)
		return
	}
	s.extLoad[dir] = bps
}

// startTx begins serializing the head-of-line packet.
func (s *Simulator) startTx(dir int32, op *outPort) {
	op.busy = true
	p := op.queue[0]
	ser := simtime.TransferTime(p.bits, s.txRate(dir, op))
	s.sched(event{at: s.k.Now().Add(ser), kind: evTxDone, dir: dir, gen: op.txGen})
}

// txDone finishes serialization: the packet departs onto the wire and the
// next queued packet starts. A stale generation stamp means a link failure
// flushed this transmitter after the event was armed — the flush already
// accounted for the packet.
func (s *Simulator) txDone(dir int32, gen uint64) {
	op := s.ports[dir]
	if op == nil || op.txGen != gen || len(op.queue) == 0 {
		return
	}
	p := op.queue[0]
	copy(op.queue, op.queue[1:])
	op.queue[len(op.queue)-1] = nil
	op.queue = op.queue[:len(op.queue)-1]
	s.txBits[dir] += p.bits

	if op.link.Up {
		// Frame corruption consults the direction's link model exactly
		// once per transmitted frame, here on the direction's owning
		// shard — the single writer of its model state. A corrupted
		// frame is counted separately from outage loss and then dropped
		// like any other (TCP recovers it via dup-ACKs/RTO, UDP resolves
		// the packet where it died).
		if !s.links.Empty() && s.links.Corrupt(netgraph.LinkID(dir>>1), dir&1 == 0) {
			s.col.PacketsCorrupted++
			s.dropPacket(p)
			if len(op.queue) > 0 {
				s.startTx(dir, op)
			} else {
				op.busy = false
			}
			return
		}
		// The arrival event carries the direction's epoch at transmit
		// time; a link failure between now and delivery bumps it and the
		// packet is lost mid-propagation. Epochs mutate only between
		// windows, so this cross-shard read is safe in sharded runs.
		s.sched(event{
			at:   s.k.Now().Add(op.link.Delay),
			kind: evArriveNode,
			pkt:  p,
			dir:  dir,
			gen:  s.linkEpoch[dir],
		})
	} else {
		s.losePacket(p)
	}
	if len(op.queue) > 0 {
		s.startTx(dir, op)
	} else {
		op.busy = false
	}
}

// arrive processes a packet arriving at a node. Runs on the node's shard.
func (s *Simulator) arrive(p *packet, node netgraph.NodeID, in netgraph.PortNum) {
	n := s.topo.Node(node)
	if n.Kind == netgraph.KindHost {
		s.deliver(p, node)
		return
	}
	s.counter++
	s.forward(p, node, in, false)
}

// forward runs the switch pipeline for a packet and acts on the decision.
// buffered marks the re-processing of a punt-buffered packet after a rule
// install; such a packet that still punts stays parked silently (the
// controller already holds its PacketIn) — forward then returns false.
func (s *Simulator) forward(p *packet, node netgraph.NodeID, in netgraph.PortNum, buffered bool) bool {
	sw := s.net.Switches[node]
	if sw == nil {
		s.dropPacket(p)
		return true
	}
	key := s.keyOf(p)
	d := sw.Process(key, s.net.PortLiveFunc(node))
	if buffered && d.ToController && !d.Drop && s.controlActive() {
		// Still no verdict for a parked packet: stay parked with no
		// duplicate PacketIn — and no duplicate accounting, or every
		// unrelated FlowMod would inflate matched-entry counters and
		// keep idle timeouts alive for a packet that never forwarded.
		return false
	}
	// Per-packet entry accounting: counters feed FlowStats replies and
	// LastUsed drives idle timeouts — the packet-granular analogue of the
	// flow engine's settle-time updates.
	for _, e := range d.Entries() {
		e.Packets++
		e.Bytes += uint64(p.bits / 8)
		e.LastUsed = s.k.Now()
	}
	// Token-bucket policing for any meters on the matched entries.
	for _, mid := range d.Meters() {
		if !s.meterAdmit(node, mid, p.bits) {
			s.dropPacket(p)
			return true
		}
	}
	switch {
	case d.Drop:
		s.dropPacket(p)
	case d.ToController:
		if !s.controlActive() {
			// No control plane: punts count and drop (the E3 baseline).
			if !buffered {
				s.puntsBy[p.flow.idx]++
			}
			s.dropPacket(p)
			return true
		}
		s.puntsBy[p.flow.idx]++
		s.puntPacket(p, node, in, d.Miss)
	case d.Flood:
		s.dropPacket(p) // flooding unsupported at packet granularity
	case d.Out != netgraph.NoPort:
		s.enqueue(p, s.dirFrom(node, d.Out))
	default:
		s.dropPacket(p)
	}
	return true
}

// keyOf returns the header key of a packet (reversed for ACKs).
func (s *Simulator) keyOf(p *packet) header.FlowKey {
	if p.ack {
		return p.flow.demand.Key.Reverse()
	}
	return p.flow.demand.Key
}

// deliver handles a packet reaching a host. Runs on the host's shard —
// for data packets, the flow's receiver side, whose state nothing else
// writes.
func (s *Simulator) deliver(p *packet, host netgraph.NodeID) {
	f := p.flow
	// The packet ends its life here on every path below (any ACK it
	// spawns is a new birth); its flow may now be finalizable.
	s.liveBy[f.idx]--
	s.noteFin(f)
	if p.ack {
		if host == f.demand.Src {
			s.handleAck(f, p.ackSeq)
		}
		return
	}
	if host != f.demand.Dst {
		return
	}
	if f.tcp {
		if f.recvDoneAt != simtime.Never {
			// Duplicate after full receive (a retransmission crossed the
			// final ACK): re-ACK so the sender quiesces. Real TCP does
			// exactly this; the sender learns completion only from the
			// ACK stream — no out-of-band state crosses the shards.
			ack := &packet{flow: f, ack: true, ackSeq: f.recvNext, bits: AckPacketBits}
			s.liveBy[f.idx]++
			s.enqueue(ack, s.hostDir(f.demand.Dst))
			return
		}
		// Receiver: cumulative ACK bookkeeping.
		f.received[p.seq] = true
		for f.received[f.recvNext] {
			delete(f.received, f.recvNext)
			f.recvNext++
		}
		ack := &packet{flow: f, ack: true, ackSeq: f.recvNext, bits: AckPacketBits}
		s.liveBy[f.idx]++
		s.enqueue(ack, s.hostDir(f.demand.Dst))
		if f.recvNext >= f.packets {
			f.recvDoneAt = s.k.Now()
		}
		return
	}
	// UDP/CBR: each data packet resolves exactly once (delivered here or
	// dropped wherever it died); completion is "every packet resolved",
	// dated by the last resolution — assembled at Finish from the
	// per-shard counters.
	s.resolveUDP(f)
}

// resolveUDP accounts one UDP data packet reaching its end of life on
// this shard (delivery at the receiver or a drop anywhere en route).
func (s *Simulator) resolveUDP(f *pktFlow) {
	s.udpRes[f.idx]++
	s.udpLast[f.idx] = s.k.Now()
}

// handleAck advances the TCP sender. Runs on the sender shard.
func (s *Simulator) handleAck(f *pktFlow, ackSeq int) {
	if f.srcDead || f.senderStopped {
		return
	}
	if ackSeq > f.sendBase {
		acked := ackSeq - f.sendBase
		f.sendBase = ackSeq
		f.inFlight -= acked
		if f.inFlight < 0 {
			f.inFlight = 0
		}
		f.dupAcks = 0
		// Slow start or congestion avoidance.
		for i := 0; i < acked; i++ {
			if f.cwnd < f.ssthresh {
				f.cwnd++
			} else {
				f.cwnd += 1 / f.cwnd
			}
		}
		s.armRTO(f)
		s.trySend(f)
		return
	}
	if f.sendBase >= f.packets {
		return // post-completion duplicate; the transfer is fully acked
	}
	// Duplicate ACK.
	f.dupAcks++
	if f.dupAcks == 3 {
		// Fast retransmit + multiplicative decrease.
		f.ssthresh = math.Max(f.cwnd/2, 2)
		f.cwnd = f.ssthresh
		f.dupAcks = 0
		s.emit(f, f.sendBase, true)
		s.armRTO(f)
	}
}

// armRTO (re)schedules the retransmission timer. Every arm removes the
// previous event from the queue outright (true cancellation); the rtoGen
// stamp and dispatch gate stay as a defensive backstop.
func (s *Simulator) armRTO(f *pktFlow) {
	s.k.Cancel(f.rto)
	f.rto = simcore.Timer{}
	if f.inFlight == 0 {
		f.rtoAt = simtime.Never
		f.rtoGen++
		return
	}
	rto := s.cfg.RTOMin
	f.rtoAt = s.k.Now().Add(rto)
	f.rtoGen++
	f.rto = s.schedTimer(event{at: f.rtoAt, kind: evRTO, flow: f, gen: f.rtoGen})
}

// handleRTO retransmits from sendBase with a collapsed window. Callers
// must have validated the event's generation stamp against f.rtoGen (the
// dispatch gate); the final cumulative ACK zeroes inFlight, so a timer
// armed before it can never fire a retransmission afterwards.
func (s *Simulator) handleRTO(f *pktFlow) {
	if f.inFlight == 0 || f.sendBase >= f.packets {
		return
	}
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.inFlight = 1
	f.nextSeq = f.sendBase + 1
	s.emit(f, f.sendBase, true)
	s.armRTO(f)
}

// losePacket accounts for a packet lost to a link or switch failure: it
// counts toward the scenario loss metric and then drops like any other.
func (s *Simulator) losePacket(p *packet) {
	s.col.PacketsLost++
	s.dropPacket(p)
}

// dropPacket accounts for a lost packet. TCP recovers via dup-ACKs/RTO;
// CBR/UDP losses resolve the packet where it died.
func (s *Simulator) dropPacket(p *packet) {
	s.liveBy[p.flow.idx]--
	s.noteFin(p.flow)
	if p.ack {
		return // lost ACKs are recovered by later cumulative ACKs or RTO
	}
	if p.flow.tcp {
		return // sender-side timers handle it
	}
	s.resolveUDP(p.flow)
}

// record emits the flow's statistics record at Finish.
func (s *Simulator) record(f *pktFlow, sims []*Simulator) {
	r, _ := s.assemble(f, sims)
	s.addRecord(r)
}

// addRecord hands a finished flow's record to the collector and tallies its
// outcome into the completion counters.
func (s *Simulator) addRecord(r stats.FlowRecord) {
	s.col.CountOutcome(r)
	s.col.AddFlow(r)
}

// assemble builds the flow's statistics record, assembling completion
// from the single-writer candidates: the earliest of the deadline stop
// (sender), the full receive (receiver), and — for UDP — the last packet
// resolution once every packet is accounted for. That earliest candidate
// is exactly the completion a serial run's first-finisher logic hits.
// final reports whether the record is time-invariant — a completed,
// live-source flow assembles identically whenever it is read, so the
// incremental finalize path may emit and evict it mid-run; srcDead and
// still-running outcomes date their records s.k.Now() and must wait for
// Finish.
func (s *Simulator) assemble(f *pktFlow, sims []*Simulator) (stats.FlowRecord, bool) {
	punts := 0
	var resolved int64
	resolvedLast := simtime.Time(0)
	for _, c := range sims {
		punts += int(c.puntsBy[f.idx])
		resolved += int64(c.udpRes[f.idx])
		if c.udpLast[f.idx] > resolvedLast {
			resolvedLast = c.udpLast[f.idx]
		}
	}
	end := simtime.Never
	if f.deadlineDoneAt < end {
		end = f.deadlineDoneAt
	}
	if f.recvDoneAt < end {
		end = f.recvDoneAt
	}
	if !f.tcp && resolved >= int64(f.packets) && resolvedLast < end {
		end = resolvedLast
	}
	completed := end != simtime.Never
	if !completed {
		end = s.k.Now()
	}
	size := f.demand.SizeBits
	if math.IsInf(size, 1) {
		size = f.sentBits
	}
	outcome := "completed"
	switch {
	case f.srcDead:
		outcome = "dropped"
		completed = false
		end = s.k.Now()
	case !completed:
		outcome = "running"
	}
	return stats.FlowRecord{
		ID:        f.id,
		Arrival:   f.arrival,
		End:       end,
		SizeBits:  size,
		SentBits:  f.sentBits,
		Completed: completed,
		Outcome:   outcome,
		Punts:     punts,
	}, outcome == "completed"
}

// senderQuiesced reports that the flow can never emit another packet: its
// source is dead, its deadline stopped it, or the transfer is fully acked
// (TCP) / fully emitted (CBR). Every field is sender-owned; the
// coordinator reads them at drain points, after the owning window.
func senderQuiesced(f *pktFlow) bool {
	if f.srcDead || f.senderStopped {
		return true
	}
	if f.tcp {
		return f.sendBase >= f.packets
	}
	return f.nextSeq >= f.packets
}

// noteFin queues a finalize check for f at this clone's next drain point
// (end of the current dispatch in serial runs, the window barrier in
// sharded ones). Duplicates are fine: tryFinalize is idempotent.
func (s *Simulator) noteFin(f *pktFlow) {
	if f.done {
		return
	}
	s.finHints = append(s.finHints, f.idx)
}

// drainFin runs the queued finalize checks of every clone. Called on the
// coordinator (or the serial engine) only, at single-threaded points
// where all clone writes are published: after each dispatch serially,
// at window barriers (exchange) sharded.
func (s *Simulator) drainFin() {
	if s.finished || s.simsAll == nil {
		return
	}
	for _, c := range s.simsAll {
		if len(c.finHints) == 0 {
			continue
		}
		for _, idx := range c.finHints {
			s.tryFinalize(idx)
		}
		c.finHints = c.finHints[:0]
	}
}

// tryFinalize records flow idx the moment its record can no longer
// change — sender quiesced, zero packets live on any clone, and a
// completed outcome — and evicts its state. Incomplete flows (srcDead,
// still running at the horizon) date their records at Finish instead.
func (s *Simulator) tryFinalize(idx int32) {
	f := s.flows[idx]
	if f == nil || f.done || !senderQuiesced(f) {
		return
	}
	live := int32(0)
	for _, c := range s.simsAll {
		live += c.liveBy[idx]
	}
	if live != 0 {
		return
	}
	r, final := s.assemble(f, s.simsAll)
	if !final {
		return
	}
	f.done = true
	f.received = nil
	s.flows[idx] = nil
	s.emitFinal(idx, r)
}

// emitFinal emits r once every lower-indexed flow has emitted, parking
// it otherwise, so AddFlow order is exactly flow-ID order — the same
// sequence the all-at-Finish path produces.
func (s *Simulator) emitFinal(idx int32, r stats.FlowRecord) {
	if idx != s.finNext {
		if s.finPending == nil {
			s.finPending = make(map[int32]stats.FlowRecord)
		}
		s.finPending[idx] = r
		return
	}
	s.addRecord(r)
	s.finNext++
	for {
		r2, ok := s.finPending[s.finNext]
		if !ok {
			return
		}
		delete(s.finPending, s.finNext)
		s.addRecord(r2)
		s.finNext++
	}
}

// sampleStats snapshots per-direction throughput state for the directions
// this shard owns. Utilization is approximated by the transmitted bits
// since the previous sample.
func (s *Simulator) sampleStats() {
	period := s.cfg.StatsEvery.Seconds()
	if period <= 0 {
		return
	}
	for dir := int32(0); int(dir) < len(s.ports); dir++ {
		// Ownership comes from the direction index alone: peeking at
		// s.ports first would race with another shard's lazy outPort
		// store on a direction it owns.
		if s.nshards > 1 && s.partOf[dirFromNode(s.dirLink(dir), dir)] != s.shardID {
			continue
		}
		op := s.ports[dir]
		if op == nil {
			continue
		}
		delta := s.txBits[dir] - s.lastTx[dir]
		rate := delta / period
		frac := 0.0
		if op.link.BandwidthBps > 0 {
			frac = rate / op.link.BandwidthBps
		}
		s.col.AddLinkSample(stats.LinkSample{
			At:      s.k.Now(),
			Link:    op.link.ID,
			Forward: op.link.A == op.from,
			RateBps: rate, UsedFrac: frac,
		})
		s.lastTx[dir] = s.txBits[dir]
	}
}
