package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"horse"
	"horse/internal/dataplane"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// run performs one repetition: set up, run once, check the outputs
	// and, when traced, read the layers.
	run func(r *rep) error
	// fidelity returns the flow-vs-packet FCT error on the workload's
	// own topology and traffic, generated with the given seed.
	fidelity func(seed int64, small bool) (float64, error)
}

var workloads = []*workload{ixpDay, fabricDense, fattreePacket, streamService}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// repResult is what a child reports about its repetition.
type repResult struct {
	Flows   int     `json:"flows"`
	SetupS  float64 `json:"setup_s"`
	RunS    float64 `json:"run_s"`
	Mallocs uint64  `json:"mallocs"`
	Digest  string  `json:"digest"`
	// Err is the first output check that failed.
	Err string `json:"err,omitempty"`
	// Layers holds the traced repetition's per-layer metrics, Samples its
	// CPU profile charged to buckets (nanoseconds).
	Layers  map[string]float64 `json:"layers,omitempty"`
	Samples map[string]int64   `json:"samples,omitempty"`
	// PeakRSSMiB is filled in by the parent from the child's rusage.
	PeakRSSMiB float64 `json:"-"`
}

// rep is one repetition in a child process.
type rep struct {
	childArgs
	tr  *tracer // nil when untraced
	out repResult
	// allocBytes is the heap allocated during the traced run.
	allocBytes uint64
}

// spanDir is where traced repetitions write their spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/spans"

// childMain runs the repetition described by env and prints its report.
func childMain(env string) int {
	var a childArgs
	if err := json.Unmarshal([]byte(env), &a); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	w := lookupWorkload(a.Workload)
	if w == nil {
		fmt.Fprintln(os.Stderr, "perfbench child: unknown workload", a.Workload)
		return 2
	}
	r := &rep{childArgs: a}
	if a.Traced {
		r.tr = newTracer()
		r.out.Layers = map[string]float64{}
	}
	if err := w.run(r); err != nil {
		r.out.Err = err.Error()
	}
	if r.tr != nil {
		file := fmt.Sprintf("%s-seed%d-rep%d.jsonl", a.Workload, a.Seed, a.Rep)
		if err := r.tr.write(spanDir, file); err != nil && r.out.Err == "" {
			r.out.Err = "write spans: " + err.Error()
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(&r.out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// profileHz is the traced run's CPU sampling rate. Setting it before
// StartCPUProfile makes the runtime print a warning that the rate is
// already set; the rate set here still applies.
const profileHz = 500

// measure runs fn as the timed part of the repetition: host time,
// allocations and, when traced, the CPU profile and GC activity.
func (r *rep) measure(name string, fn func()) error {
	var prof bytes.Buffer
	if r.tr != nil {
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	before := snapRuntime()
	d := r.tr.timed(name, fn)
	after := snapRuntime()
	r.out.RunS = d.Seconds()
	r.out.Mallocs = after.mallocs - before.mallocs
	if r.tr == nil {
		return nil
	}
	pprof.StopCPUProfile()
	samples, err := moduleSamples(prof.Bytes())
	if err != nil {
		return err
	}
	r.out.Samples = samples
	r.out.Layers["runtime.gc_cpu_share"] = gcShare(before, after)
	r.out.Layers["runtime.gc_cycles"] = float64(after.numGC - before.numGC)
	r.allocBytes = after.totalAlloc - before.totalAlloc
	return nil
}

// engineSpec describes a workload that drives a horse.Engine directly.
type engineSpec struct {
	// build makes the topology and returns the trace generator for it.
	build func(seed int64) (*horse.Topology, func() horse.Trace, error)
	// opts are the engine options besides the controller; serial drops
	// sharding (the parity reference of a sharded workload).
	opts  func(serial bool) []horse.Option
	ctrl  func() horse.Controller // nil: no controller
	macs  bool                    // pre-install MAC routes (packet baseline)
	until horse.Time
	// every is the progress period of the traced run, where the queue
	// length and active flow count are sampled.
	every horse.Duration
	// sharded marks a workload whose traced run is checked against a
	// serial run of the same inputs.
	sharded bool
	// probeWindow bounds the fidelity probe's traffic (0 = all of it) and
	// probeRTT is the flow model's TCP round trip for the topology.
	probeWindow horse.Duration
	probeRTT    horse.Duration
}

// peaks samples the kernel queue length and the fair-share allocator's
// flow count from a progress callback.
type peaks struct{ queue, active int }

func (p *peaks) sample(eng horse.Engine) {
	if n := eng.Kernel().Len(); n > p.queue {
		p.queue = n
	}
	if s, ok := eng.(*horse.Simulator); ok {
		if n := s.Allocator().NumFlows(); n > p.active {
			p.active = n
		}
	}
}

// engineRun is one built, loaded and run engine.
type engineRun struct {
	eng   horse.Engine
	col   *horse.Collector
	tr    horse.Trace
	ctrl  *timedController
	peaks peaks
}

// start builds the engine and loads the trace, timing each step into the
// repetition's set-up time.
func (sp engineSpec) start(r *rep, serial, progress bool) (*engineRun, error) {
	var (
		topo *horse.Topology
		gen  func() horse.Trace
		err  error
		er   = &engineRun{}
	)
	tBuild := r.tr.timed("netgraph.build", func() { topo, gen, err = sp.build(r.Seed) })
	if err != nil {
		return nil, err
	}
	tGen := r.tr.timed("traffic.gen", func() { er.tr = gen() })
	opts := sp.opts(serial)
	if sp.ctrl != nil {
		var c horse.Controller = sp.ctrl()
		if r.tr != nil {
			er.ctrl = &timedController{Controller: c, tr: r.tr}
			c = er.ctrl
		}
		opts = append(opts, horse.WithController(c))
	}
	if progress && sp.every > 0 {
		opts = append(opts, horse.WithProgressEvery(sp.every, func(horse.Progress) { er.peaks.sample(er.eng) }))
	}
	tNew := r.tr.timed("horse.new", func() {
		er.eng, err = horse.New(topo, opts...)
		if err == nil && sp.macs {
			horse.InstallMACRoutes(er.eng.Network())
		}
	})
	if err != nil {
		return nil, err
	}
	tLoad := r.tr.timed("horse.load", func() { er.eng.Load(er.tr) })
	r.out.SetupS = (tBuild + tGen + tNew + tLoad).Seconds()
	return er, nil
}

// runEngine is the repetition of an engine workload.
func runEngine(r *rep, sp engineSpec) error {
	er, err := sp.start(r, false, r.tr != nil && !sp.sharded)
	if err != nil {
		return err
	}
	var runErr error
	if err := r.measure("horse.run", func() { er.col, runErr = er.eng.Run(context.Background(), sp.until) }); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	recs := er.col.Flows()
	r.out.Flows = len(recs)
	r.out.Digest = digestOf(recs)
	if err := checkEngine(er, recs); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	if sp.sharded {
		// The serial run is the parity reference of the sharded one, and
		// the run where the kernel queue length is sampled.
		ref, err := sp.start(&rep{childArgs: r.childArgs}, true, true)
		if err != nil {
			return err
		}
		col, err := ref.eng.Run(context.Background(), sp.until)
		if err != nil {
			return err
		}
		if d := digestOf(col.Flows()); d != r.out.Digest {
			return fmt.Errorf("sharded records (digest %s) differ from the serial run's (%s)", r.out.Digest, d)
		}
		er.peaks = ref.peaks
	}
	engineLayers(r, er)
	return nil
}

func digestOf(recs []horse.FlowRecord) string {
	d := newDigest()
	for _, rec := range recs {
		d.add(rec)
	}
	return d.String()
}

// eventsOf reads an engine's dispatched-event count. The packet engine's
// collector leaves EventsRun at 0, so its own counter is read instead.
func eventsOf(eng horse.Engine) uint64 {
	if p, ok := eng.(*horse.PacketSimulator); ok {
		return p.EventsDispatched()
	}
	return eng.Kernel().Dispatched()
}

// checkEngine checks a run's records against its trace and counters.
func checkEngine(er *engineRun, recs []horse.FlowRecord) error {
	if len(recs) != len(er.tr) {
		return fmt.Errorf("%d records for %d flows in the trace", len(recs), len(er.tr))
	}
	oc, err := outcomes(recs)
	if err != nil {
		return err
	}
	c := er.col.Counters()
	if c.FlowsStarted != uint64(len(recs)) {
		return fmt.Errorf("outcome counts add up to %d, flows started %d", len(recs), c.FlowsStarted)
	}
	if oc["completed"] == 0 {
		return fmt.Errorf("no flow completed")
	}
	if eventsOf(er.eng) == 0 {
		return fmt.Errorf("no event dispatched")
	}
	_, packet := er.eng.(*horse.PacketSimulator)
	// The packet engine leaves FlowsCompleted at 0; elsewhere the
	// counters must match the records.
	if !packet || c.FlowsCompleted != 0 {
		if c.FlowsCompleted != uint64(oc["completed"]) || c.FlowsDropped != uint64(oc["dropped"]) || c.FlowsLooped != uint64(oc["looped"]) {
			return fmt.Errorf("counters completed/dropped/looped %d/%d/%d, records %d/%d/%d",
				c.FlowsCompleted, c.FlowsDropped, c.FlowsLooped, oc["completed"], oc["dropped"], oc["looped"])
		}
	}
	return nil
}

// engineLayers reads a traced engine run's per-layer metrics.
func engineLayers(r *rep, er *engineRun) {
	L := r.out.Layers
	for _, s := range []string{"horse.new", "horse.load", "netgraph.build", "traffic.gen"} {
		L[s+"_s"] = r.tr.selfSeconds(s)
	}
	flows := float64(r.out.Flows)
	events := float64(eventsOf(er.eng))
	L["simcore.events"] = events
	L["simcore.events_per_flow"] = events / flows
	L["simcore.events_per_s"] = events / r.out.RunS
	L["simcore.queue_len_peak"] = float64(er.peaks.queue)
	L["fairshare.rate_changes"] = float64(er.col.RateChanges)
	L["fairshare.active_flows_peak"] = float64(er.peaks.active)
	if er.ctrl != nil {
		L["controller.handle_calls"] = float64(er.ctrl.calls)
		L["controller.handle_s"] = r.tr.selfSeconds("controller.handle")
	}
	L["controller.flow_mods"] = float64(er.col.FlowMods)
	L["stats.link_samples"] = float64(len(er.col.LinkSeries()))
	L["stats.records"] = flows
	L["runtime.alloc_bytes_per_flow"] = float64(r.allocBytes) / flows
	if p, ok := er.eng.(*horse.PacketSimulator); ok {
		L["packetsim.packets_forwarded"] = float64(p.PacketsForwarded())
		L["packetsim.events"] = float64(p.EventsDispatched())
		L["packetsim.retransmits"] = float64(er.col.Retransmits)
		L["packetsim.packets_lost"] = float64(er.col.PacketsLost)
		L["packetsim.shard_imbalance"] = imbalance(p.ShardLoads())
	}
	// Post-run replay of path resolution over every demand.
	id := r.tr.begin("dataplane.walk_replay")
	net := er.eng.Network()
	ns := make([]float64, 0, len(er.tr))
	delivered := 0
	for _, d := range er.tr {
		t0 := time.Now()
		res := net.Walk(d.Key, d.Src, d.Dst)
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		if res.Terminal == dataplane.Delivered {
			delivered++
		}
	}
	r.tr.end(id)
	L["dataplane.walk_ns_p50"] = quantile(ns, 0.5)
	L["dataplane.walk_ns_p99"] = quantile(ns, 0.99)
	L["dataplane.walk_delivered_ratio"] = float64(delivered) / float64(len(ns))
	L["dataplane.walk_samples"] = float64(len(ns))
}

// imbalance is max/mean of per-shard event loads (1 = even).
func imbalance(loads []uint64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, max uint64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(loads)) / float64(sum)
}

// fidelityError replays a workload's topology and traffic at flow and at
// packet fidelity under identical pre-installed MAC forwarding, and
// returns |mean FCT(flow) − mean FCT(packet)| / mean FCT(packet) over
// completed flows. This is the E3 method, except that the routes
// ProactiveMAC would install are written directly, so that flows starting
// at time 0 find them too. A positive window keeps only flows that start
// inside it, and turns a constant-rate flow that outlasts it into a
// transfer of what it sends in the window.
func fidelityError(sp engineSpec, seed int64) (float64, error) {
	run := func(packet bool) ([]float64, error) {
		topo, gen, err := sp.build(seed)
		if err != nil {
			return nil, err
		}
		tr := clip(gen(), sp.probeWindow)
		opts := []horse.Option{horse.WithMiss(horse.MissDrop)}
		if packet {
			opts = append(opts, horse.WithFidelity(horse.Packet))
		} else {
			opts = append(opts, horse.WithTCP(horse.TCPParams{RTT: sp.probeRTT, MSS: 1500, InitialWindow: 10}))
		}
		eng, err := horse.New(topo, opts...)
		if err != nil {
			return nil, err
		}
		horse.InstallMACRoutes(eng.Network())
		eng.Load(tr)
		col, err := eng.Run(context.Background(), horse.Never)
		if err != nil {
			return nil, err
		}
		return col.FCTs(), nil
	}
	fp, err := run(true)
	if err != nil {
		return 0, err
	}
	ff, err := run(false)
	if err != nil {
		return 0, err
	}
	mp := mean(fp)
	if len(fp) == 0 || len(ff) == 0 || mp <= 0 {
		return 0, fmt.Errorf("fidelity probe: %d packet and %d flow completions", len(fp), len(ff))
	}
	return math.Abs(mean(ff)-mp) / mp, nil
}

func clip(tr horse.Trace, window horse.Duration) horse.Trace {
	if window <= 0 {
		return tr
	}
	var out horse.Trace
	for _, d := range tr {
		if d.Start >= horse.Time(window) {
			continue
		}
		if d.Duration > window {
			d.SizeBits = d.RateBps * window.Seconds()
			d.Duration = 0
		}
		out = append(out, d)
	}
	return out
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// engineWorkload makes a workload from an engine spec per size.
func engineWorkload(name, why string, spec func(small bool) engineSpec) *workload {
	return &workload{
		name: name,
		why:  why,
		run:  func(r *rep) error { return runEngine(r, spec(r.Small)) },
		fidelity: func(seed int64, small bool) (float64, error) {
			return fidelityError(spec(small), seed)
		},
	}
}

var ixpDay = engineWorkload("ixp-day",
	"the paper's regime: a simulated IXP day under a reactive ECMP controller, stressing path resolution, stats sampling and fair sharing",
	func(small bool) engineSpec {
		members, hours := 200, 24
		if small {
			members, hours = 40, 2
		}
		return engineSpec{
			build: func(seed int64) (*horse.Topology, func() horse.Trace, error) {
				// The fabric and its member weights are fixed; the seed
				// draws the flows' source ports, and so their ECMP paths.
				fab, err := horse.BuildIXP(horse.LargeIXP(members))
				if err != nil {
					return nil, nil, err
				}
				return fab.Topo, func() horse.Trace {
					return fab.ReplayTrace(float64(members)*1e9, 0.2, horse.Hour, horse.Duration(hours)*horse.Hour, seed)
				}, nil
			},
			opts: func(bool) []horse.Option {
				return []horse.Option{horse.WithMiss(horse.MissController), horse.WithStatsEvery(10 * horse.Minute)}
			},
			ctrl:        func() horse.Controller { return horse.NewChain(&horse.ECMPLoadBalancer{}) },
			until:       horse.Time(horse.Duration(hours+1) * horse.Hour),
			every:       10 * horse.Minute,
			probeWindow: 2 * horse.Millisecond,
			probeRTT:    400 * horse.Microsecond,
		}
	})

var fabricDense = engineWorkload("fabric-dense",
	"many concurrent Pareto flows share leaf-spine trunks, so the fair-share solver dominates and resolve and stats are bypassed",
	func(small bool) engineSpec {
		lambda, horizon := 5000.0, 2*horse.Second
		if small {
			lambda, horizon = 500, 200*horse.Millisecond
		}
		return engineSpec{
			build: func(seed int64) (*horse.Topology, func() horse.Trace, error) {
				topo := horse.LeafSpine(8, 4, 4, horse.Gig, horse.TenGig)
				return topo, func() horse.Trace {
					return horse.NewGenerator(seed).PoissonArrivals(horse.PoissonConfig{
						Hosts: topo.Hosts(), Lambda: lambda, Horizon: horizon,
						Sizes: horse.Pareto{XMin: 1e6, Alpha: 1.3}, TCPFraction: 0.5, CBRRateBps: 1e8,
					})
				}, nil
			},
			opts:        func(bool) []horse.Option { return []horse.Option{horse.WithMiss(horse.MissController)} },
			ctrl:        func() horse.Controller { return horse.NewChain(&horse.ECMPLoadBalancer{}) },
			until:       horse.Never,
			every:       10 * horse.Millisecond,
			probeWindow: 50 * horse.Millisecond,
			probeRTT:    400 * horse.Microsecond,
		}
	})

var fattreePacket = engineWorkload("fattree-packet",
	"the only packet-level workload: forwarding, TCP retransmits and the two-shard barrier, bypassing fair sharing, controller and stats",
	func(small bool) engineSpec {
		k, horizon := 8, 400*horse.Millisecond
		if small {
			k, horizon = 4, 50*horse.Millisecond
		}
		return engineSpec{
			build: func(seed int64) (*horse.Topology, func() horse.Trace, error) {
				topo := horse.FatTree(k, horse.Gig)
				return topo, func() horse.Trace {
					return horse.NewGenerator(seed).PoissonArrivals(horse.PoissonConfig{
						Hosts: topo.Hosts(), Lambda: 40 * float64(len(topo.Hosts())), Horizon: horizon,
						Sizes: horse.FixedSize(1e6), TCPFraction: 0.5, CBRRateBps: 2e7,
					})
				}, nil
			},
			opts: func(serial bool) []horse.Option {
				shards := 2
				if serial {
					shards = 1
				}
				return []horse.Option{
					horse.WithFidelity(horse.Packet), horse.WithMiss(horse.MissDrop),
					horse.WithEventQueue(horse.EventQueueWheel), horse.WithShards(shards),
				}
			},
			macs:     true,
			until:    horse.Time(2 * horse.Second),
			every:    horse.Millisecond,
			sharded:  true,
			probeRTT: 600 * horse.Microsecond,
		}
	})
