package horse_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"horse"
	"horse/api/wire"
)

// specFixture is a small deterministic session: two explicit demands on
// a leaf-spine fabric plus a link flap. Used across the bridge tests and
// mirrored by the service parity tests.
func specFixture() *wire.SessionSpec {
	return &wire.SessionSpec{
		Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
		Workload: wire.WorkloadSpec{Demands: []wire.DemandSpec{
			{Src: "h0", Dst: "h3", SizeBits: 8e5, RateBps: wire.Float(math.Inf(1)), TCP: true},
			{Src: "h1", Dst: "h2", StartNs: 1e6, SizeBits: 8e5, RateBps: 1e8},
		}},
		Scenario: []wire.EventSpec{
			{AtNs: 2e6, Kind: wire.EventLinkDown, LinkA: "leaf0", LinkB: "spine0"},
			{AtNs: 5e6, Kind: wire.EventLinkUp, LinkA: "leaf0", LinkB: "spine0"},
		},
		Options: wire.OptionsSpec{
			Controller: []wire.AppSpec{{Kind: wire.AppProactiveMAC}},
			Miss:       "controller",
		},
		UntilNs: int64(10 * horse.Second),
	}
}

func TestNewFromSpecRuns(t *testing.T) {
	eng, until, err := horse.NewFromSpec(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	if until != horse.Time(10*horse.Second) {
		t.Fatalf("until = %v, want 10s", until)
	}
	col, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}
	if col.FlowsCompleted != 2 {
		t.Fatalf("completed %d flows, want 2", col.FlowsCompleted)
	}
}

// TestNewFromSpecParity is the contract behind the daemon: a spec-built
// engine must produce records identical to the same simulation assembled
// by hand through the public builder.
func TestNewFromSpecParity(t *testing.T) {
	eng, until, err := horse.NewFromSpec(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	specCol, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}

	// The same session, hand-assembled.
	spec := specFixture()
	topo, err := spec.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Workload.Trace(topo)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := wire.Timeline(spec.Scenario, topo)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := horse.New(topo,
		horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
		horse.WithMiss(horse.MissController),
	)
	if err != nil {
		t.Fatal(err)
	}
	hand.Load(tr)
	if err := tl.Apply(hand, until); err != nil {
		t.Fatal(err)
	}
	handCol, err := hand.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}

	a, b := specCol.Flows(), handCol.Flows()
	if len(a) != len(b) {
		t.Fatalf("spec run: %d records, hand run: %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n spec %+v\n hand %+v", i, a[i], b[i])
		}
	}
}

// TestNewFromSpecStreamed pins the daemon's bounded-memory ingestion
// path: a Poisson-only workload submitted with Stream (fed through
// WorkloadSpec.Reader → WithTraceReader) must produce records
// byte-identical to the same spec materialized eagerly, and a streamed
// spec with sorted explicit demands must match their eager load. A
// streamed session mixing demands and Poisson is also exercised — it
// must run clean even though its load-order numbering (global start
// order) legitimately differs from the demands-first eager order.
func TestNewFromSpecStreamed(t *testing.T) {
	poisson := func(stream bool) *wire.SessionSpec {
		return &wire.SessionSpec{
			Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
			Workload: wire.WorkloadSpec{
				Poisson: &wire.PoissonSpec{
					Seed: 7, Lambda: 300, HorizonNs: int64(200 * horse.Millisecond),
					Size: wire.SizeSpec{Kind: "fixed", Bits: 8e5}, CBRRateBps: 1e8,
				},
				Stream: stream,
			},
			Options: wire.OptionsSpec{
				Controller: []wire.AppSpec{{Kind: wire.AppProactiveMAC}},
				Miss:       "controller",
			},
			UntilNs: int64(10 * horse.Second),
		}
	}
	run := func(spec *wire.SessionSpec) []horse.FlowRecord {
		eng, until, err := horse.NewFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		col, err := eng.Run(context.Background(), until)
		if err != nil {
			t.Fatal(err)
		}
		return col.Flows()
	}
	want := run(poisson(false))
	if len(want) == 0 {
		t.Fatal("poisson workload produced no records")
	}
	got := run(poisson(true))
	if len(want) != len(got) {
		t.Fatalf("streamed run: %d records, eager: %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d differs:\n eager %+v\nstream %+v", i, want[i], got[i])
		}
	}

	// Sorted explicit demands: streamed == eager (specFixture's demands
	// are already in start order).
	eagerFix := run(specFixture())
	streamFix := specFixture()
	streamFix.Workload.Stream = true
	gotFix := run(streamFix)
	if len(eagerFix) != len(gotFix) {
		t.Fatalf("streamed fixture: %d records, eager: %d", len(gotFix), len(eagerFix))
	}
	for i := range eagerFix {
		if eagerFix[i] != gotFix[i] {
			t.Fatalf("fixture record %d differs:\n eager %+v\nstream %+v", i, eagerFix[i], gotFix[i])
		}
	}

	// Mixed demands + Poisson streams in global start order; the session
	// must run clean with every demand accounted.
	mixed := poisson(true)
	mixed.Workload.Demands = []wire.DemandSpec{
		{Src: "h0", Dst: "h3", SizeBits: 8e5, RateBps: 1e8},
	}
	if n := len(run(mixed)); n != len(want)+1 {
		t.Fatalf("mixed streamed run: %d records, want %d", n, len(want)+1)
	}
}

func TestNewFromSpecValidation(t *testing.T) {
	barely := func(mut func(*wire.SessionSpec)) *wire.SessionSpec {
		s := specFixture()
		mut(s)
		return s
	}
	cases := []struct {
		name    string
		spec    *wire.SessionSpec
		asBuild bool // expect *horse.BuildError (else *wire.SpecError)
	}{
		{"nil spec", nil, true},
		{"bad topology", barely(func(s *wire.SessionSpec) { s.Topology.Kind = "moebius" }), false},
		{"bad workload", barely(func(s *wire.SessionSpec) { s.Workload.Demands[0].Dst = "nowhere" }), false},
		{"bad scenario", barely(func(s *wire.SessionSpec) { s.Scenario[0].Switch = ""; s.Scenario[0].Kind = "melt" }), false},
		{"bad fidelity", barely(func(s *wire.SessionSpec) { s.Options.Fidelity = "quantum" }), true},
		{"bad app", barely(func(s *wire.SessionSpec) { s.Options.Controller = []wire.AppSpec{{Kind: "oracle"}} }), true},
		{"bad miss", barely(func(s *wire.SessionSpec) { s.Options.Miss = "explode" }), true},
		{"bad option combo", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityHybrid
			s.Options.Shards = 4
			pf := 0.5
			s.Options.PacketFraction = &pf
		}), true},
		{"bad balancing name", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityPacket
			s.Options.Shards = 4
			s.Options.ShardBalancing = "lopsided"
		}), true},
		{"balancing without shards", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityPacket
			s.Options.ShardBalancing = wire.BalanceSteal
		}), true},
		{"balancing on flow", barely(func(s *wire.SessionSpec) {
			s.Options.Shards = 4
			s.Options.ShardBalancing = wire.BalanceWeighted
		}), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := horse.NewFromSpec(c.spec)
			if err == nil {
				t.Fatal("spec accepted, want error")
			}
			var berr *horse.BuildError
			var serr *wire.SpecError
			switch {
			case c.asBuild && !errors.As(err, &berr):
				t.Fatalf("error %v is not a *BuildError", err)
			case !c.asBuild && !errors.As(err, &serr):
				t.Fatalf("error %v is not a *SpecError", err)
			}
		})
	}
}

func TestSpecOptionsDefaults(t *testing.T) {
	// A zero OptionsSpec must behave exactly like no options at all.
	spec := specFixture()
	spec.Scenario = nil
	spec.Options = wire.OptionsSpec{}
	eng, until, err := horse.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// No controller and default drop-on-miss: flows still traverse the
	// default-built engine (flow fidelity).
	if _, err := eng.Run(context.Background(), until); err != nil {
		t.Fatal(err)
	}
}

// TestSpecLegacyEventQueueNames pins the frozen horse-wire/v1 names of
// the retired calendar and auto backends: event_queue "calendar" and
// "auto" and calendar_queue true must still build, and (running on the
// wheel) produce flow records and link series byte-identical to
// event_queue "heap". calendar_queue combined with another explicit
// backend stays a *BuildError. The retired shard_balancing modes are
// frozen the same way: "uniform", "weighted" and "steal" all run the
// uniform partition, byte-identical to the sharded run with no balancing.
// So is shards on a flow spec: the Flow engine runs serial, byte-identical
// to the spec without shards, at the cost of one worker.
func TestSpecLegacyEventQueueNames(t *testing.T) {
	render := func(t *testing.T, fidelity string, mut func(*wire.OptionsSpec)) string {
		t.Helper()
		spec := specFixture()
		spec.Options.Fidelity = fidelity
		mut(&spec.Options)
		eng, until, err := horse.NewFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		col, err := eng.Run(context.Background(), until)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := col.WriteFlowsCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteLinkSeriesCSV(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	legacy := []struct {
		name string
		mut  func(*wire.OptionsSpec)
	}{
		{"event_queue=calendar", func(o *wire.OptionsSpec) { o.EventQueue = wire.EventQueueCalendar }},
		{"event_queue=auto", func(o *wire.OptionsSpec) { o.EventQueue = wire.EventQueueAuto }},
		{"calendar_queue", func(o *wire.OptionsSpec) { o.CalendarQueue = true }},
		{"calendar_queue+event_queue=calendar", func(o *wire.OptionsSpec) {
			o.CalendarQueue = true
			o.EventQueue = wire.EventQueueCalendar
		}},
	}
	for _, fid := range []string{wire.FidelityFlow, wire.FidelityPacket} {
		heap := render(t, fid, func(o *wire.OptionsSpec) { o.EventQueue = wire.EventQueueHeap })
		if strings.Count(heap, "\n") < 3 {
			t.Fatalf("%s: heap run produced no records", fid)
		}
		for _, c := range legacy {
			t.Run(fid+"/"+c.name, func(t *testing.T) {
				if got := render(t, fid, c.mut); got != heap {
					t.Fatal("records differ from the event_queue=heap run")
				}
			})
		}
	}
	t.Run("flow/shards=4", func(t *testing.T) {
		serial := render(t, wire.FidelityFlow, func(o *wire.OptionsSpec) {})
		got := render(t, wire.FidelityFlow, func(o *wire.OptionsSpec) { o.Shards = 4 })
		if got != serial {
			t.Fatal("records differ from the flow run without shards")
		}
		if n := (wire.OptionsSpec{Fidelity: wire.FidelityFlow, Shards: 4}).Workers(); n != 1 {
			t.Errorf("flow spec with shards=4 costs %d workers, want 1", n)
		}
	})
	sharded := render(t, wire.FidelityPacket, func(o *wire.OptionsSpec) { o.Shards = 4 })
	for _, b := range []string{wire.BalanceUniform, wire.BalanceWeighted, wire.BalanceSteal} {
		b := b
		t.Run("packet/shard_balancing="+b, func(t *testing.T) {
			got := render(t, wire.FidelityPacket, func(o *wire.OptionsSpec) {
				o.Shards = 4
				o.ShardBalancing = b
			})
			if got != sharded {
				t.Fatal("records differ from the shards=4 run with no balancing")
			}
		})
	}

	for _, q := range []string{wire.EventQueueHeap, wire.EventQueueWheel, wire.EventQueueAuto} {
		spec := specFixture()
		spec.Options.CalendarQueue = true
		spec.Options.EventQueue = q
		_, _, err := horse.NewFromSpec(spec)
		var berr *horse.BuildError
		if !errors.As(err, &berr) {
			t.Errorf("calendar_queue with event_queue=%s: error %v, want a *BuildError", q, err)
		}
	}
}
