package flowsim

import (
	"reflect"
	"testing"

	"horse/internal/dataplane"
	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/stats"
	"horse/internal/traffic"
)

// streamWorkload is the leaf-spine Poisson workload the determinism tests
// use, at a size small enough for the equivalence matrix.
func streamWorkload() (*netgraph.Topology, traffic.PoissonConfig) {
	topo := netgraph.LeafSpine(3, 2, 3, netgraph.Gig, netgraph.TenGig)
	return topo, traffic.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 100, Horizon: simtime.Second,
		Sizes: traffic.FixedSize(1e6), TCPFraction: 0.3, CBRRateBps: 1e7,
	}
}

// TestReaderMatchesLoad is the flowsim half of the bounded-memory
// equivalence contract: streaming the workload in through SetTraceReader
// — from a pre-parsed trace or straight from the Poisson generator — must
// reproduce the eager Load run byte-for-byte, and the record-sink
// sequence must equal the retained Records() order.
func TestReaderMatchesLoad(t *testing.T) {
	topo, cfg := streamWorkload()
	tr := traffic.NewGenerator(1).PoissonArrivals(cfg)

	run := func(mk func(*Simulator)) ([]stats.FlowRecord, uint64) {
		sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
		mk(sim)
		col := mustRun(sim, simtime.Never)
		return col.Flows(), col.EventsRun
	}

	want, wantEvents := run(func(s *Simulator) { s.Load(tr) })
	if len(want) != len(tr) {
		t.Fatalf("eager run recorded %d of %d flows", len(want), len(tr))
	}

	got, gotEvents := run(func(s *Simulator) { s.SetTraceReader(traffic.TraceReader(tr)) })
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("trace reader diverged from Load: %d vs %d records", len(want), len(got))
	}
	if wantEvents != gotEvents {
		t.Fatalf("trace reader dispatched %d events, Load %d", gotEvents, wantEvents)
	}

	// The generator-backed reader shares the rng draw sequence with
	// PoissonArrivals, so it must produce the identical workload without
	// ever materializing the trace.
	got, _ = run(func(s *Simulator) { s.SetTraceReader(traffic.NewPoissonReader(1, cfg)) })
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("poisson reader diverged from Load: %d vs %d records", len(want), len(got))
	}

	// Reader + sink: the streamed record sequence matches retained order
	// and nothing stays behind in the collector.
	var streamed []stats.FlowRecord
	sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
	sim.SetRecordSink(func(r stats.FlowRecord) { streamed = append(streamed, r) })
	sim.SetTraceReader(traffic.NewPoissonReader(1, cfg))
	col := mustRun(sim, simtime.Never)
	if n := len(col.Flows()); n != 0 {
		t.Fatalf("sink mode retained %d records", n)
	}
	if !reflect.DeepEqual(want, streamed) {
		t.Fatalf("streamed sink sequence diverged: %d vs %d records", len(want), len(streamed))
	}
}

// TestFinishedFlowsEvicted pins the flow engine's bounded memory without
// a record sink: a finalized flow's state is reclaimed at once, so after
// the run no flow is reachable through Flow while every record stays in
// the collector.
func TestFinishedFlowsEvicted(t *testing.T) {
	topo, cfg := streamWorkload()
	tr := traffic.NewGenerator(1).PoissonArrivals(cfg)
	sim := New(Config{Topology: topo, Controller: proactiveMAC{}, Miss: dataplane.MissController})
	sim.Load(tr)
	col := mustRun(sim, simtime.Never)
	recs := col.Flows()
	if len(recs) != len(tr) {
		t.Fatalf("recorded %d of %d flows", len(recs), len(tr))
	}
	for _, r := range recs {
		if f := sim.Flow(FlowID(r.ID)); f != nil {
			t.Fatalf("flow %d (%s) still held after the run", r.ID, r.Outcome)
		}
	}
	if n := len(sim.flows); n != 0 {
		t.Errorf("%d flows retained after the run", n)
	}
}
