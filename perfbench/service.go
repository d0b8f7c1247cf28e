package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"horse"
	"horse/api/wire"
	"horse/internal/service"
)

var streamService = &workload{
	name: "stream-service",
	why:  "the submit-to-done round trip of an in-process service over a unix socket, streaming every record back: the only workload running service and wire",
	run:  runStream,
	fidelity: func(seed int64, small bool) (float64, error) {
		spec := streamSpec(seed, small)
		return fidelityError(engineSpec{
			build: func(int64) (*horse.Topology, func() horse.Trace, error) {
				topo, err := spec.Topology.Build()
				if err != nil {
					return nil, nil, err
				}
				tr, err := spec.Workload.Trace(topo)
				return topo, func() horse.Trace { return tr }, err
			},
			probeWindow: 20 * horse.Millisecond,
			probeRTT:    200 * horse.Microsecond,
		}, seed)
	},
}

// streamSpec is the submitted session: a star of 8 hosts under proactive
// MAC forwarding, Poisson 50k flows/s of fixed 10-kbit CBR flows, with
// bounded-memory trace ingestion.
func streamSpec(seed int64, small bool) wire.SessionSpec {
	horizon := horse.Second
	if small {
		horizon = 40 * horse.Millisecond
	}
	return wire.SessionSpec{
		Topology: wire.TopoSpec{Kind: wire.TopoStar, N: 8},
		Workload: wire.WorkloadSpec{Stream: true, Poisson: &wire.PoissonSpec{
			Seed: seed, Lambda: 50000, HorizonNs: int64(horizon),
			Size: wire.SizeSpec{Kind: wire.SizeFixed, Bits: 1e4},
		}},
		Options: wire.OptionsSpec{
			Fidelity:   wire.FidelityFlow,
			Controller: []wire.AppSpec{{Kind: wire.AppProactiveMAC}},
			// Installs land before the first arrival, so no flow is
			// dropped on a table miss.
			ControlLatencyNs: int64(horse.Microsecond),
		},
	}
}

// setupRounds is how many times a stream-service repetition starts the
// server, dials and shakes hands; set-up time is the median.
const setupRounds = 5

// countingConn counts the bytes the client reads.
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// embedded is an in-process server on a unix socket with one client.
type embedded struct {
	srv    *service.Server
	served chan struct{}
	sock   string
	conn   *countingConn
	client *wire.Client
}

func startEmbedded(sock string) (*embedded, error) {
	if err := os.Remove(sock); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	e := &embedded{srv: service.NewServer(service.New(service.Config{}), "perfbench"), served: make(chan struct{}), sock: sock}
	go func() {
		defer close(e.served)
		if err := e.srv.Serve(l); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	c, err := net.Dial("unix", sock)
	if err != nil {
		e.stop()
		return nil, err
	}
	e.conn = &countingConn{Conn: c}
	if e.client, err = wire.NewClient(e.conn); err != nil {
		c.Close()
		e.stop()
		return nil, err
	}
	return e, nil
}

// stop closes the client, shuts the server down and waits for Serve to
// return.
func (e *embedded) stop() {
	if e.client != nil {
		e.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	<-e.served
	os.Remove(e.sock)
}

// runStream is the repetition of stream-service.
func runStream(r *rep) error {
	spec := streamSpec(r.Seed, r.Small)
	topo, err := spec.Topology.Build()
	if err != nil {
		return err
	}
	tr, err := spec.Workload.Trace(topo)
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "sock")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sock := filepath.Join(dir, fmt.Sprintf("%d.sock", os.Getpid()))

	var e *embedded
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.stop()
		}
		d := r.tr.timed("service.setup", func() { e, err = startEmbedded(sock) })
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer e.stop()
	r.out.SetupS = median(setups)

	var (
		st           wire.SessionStatus
		done         wire.DoneEvent
		submitStart  time.Time
		submitDur    time.Duration
		runErr       error
		oc           = map[string]int{}
		dg           = newDigest()
		arrivals     []time.Time
		records      []wire.Record
		traced       = r.tr != nil
		bytesAtStart = e.conn.read.Load()
	)
	if err := r.measure("service.session", func() {
		var stream *wire.Stream
		submitStart = time.Now()
		submitDur = r.tr.timed("service.submit", func() {
			st, stream, runErr = e.client.Submit(wire.SubmitParams{Name: "perfbench", Spec: spec, Stream: true})
		})
		if runErr != nil {
			return
		}
		id := r.tr.begin("service.drain")
		done, runErr = stream.Drain(nil, func(rec wire.Record) {
			oc[rec.Outcome]++
			dg.add(rec.FlowRecord())
			if traced {
				arrivals = append(arrivals, time.Now())
				records = append(records, rec)
			}
		})
		r.tr.end(id)
	}); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	n := 0
	for _, c := range oc {
		n += c
	}
	r.out.Flows = n
	r.out.Digest = dg.String()
	if err := checkStream(done, oc, n, len(tr)); err != nil {
		return err
	}
	if !traced {
		return nil
	}

	L := r.out.Layers
	c := done.Summary.Counters
	events := float64(c.EventsRun)
	L["simcore.events"] = events
	L["simcore.events_per_flow"] = events / float64(n)
	L["simcore.events_per_s"] = events / r.out.RunS
	L["fairshare.rate_changes"] = float64(c.RateChanges)
	L["controller.flow_mods"] = float64(c.FlowMods)
	L["stats.records"] = float64(n)
	L["runtime.alloc_bytes_per_flow"] = float64(r.allocBytes) / float64(n)
	L["service.submit_ms"] = float64(submitDur.Nanoseconds()) / 1e6
	L["service.first_record_ms"] = float64(arrivals[0].Sub(submitStart).Nanoseconds()) / 1e6
	gaps := make([]float64, 0, len(arrivals)-1)
	for i := 1; i < len(arrivals); i++ {
		gaps = append(gaps, float64(arrivals[i].Sub(arrivals[i-1]).Nanoseconds())/1e3)
	}
	L["service.record_gap_us_p50"] = quantile(gaps, 0.5)
	L["service.record_gap_us_p99"] = quantile(gaps, 0.99)
	L["service.record_gaps"] = float64(len(gaps))
	L["wire.bytes_per_record"] = float64(e.conn.read.Load()-bytesAtStart) / float64(n)
	return wireReplay(r, st.Session, records)
}

// checkStream checks a streamed session's terminal state and records.
func checkStream(done wire.DoneEvent, oc map[string]int, n, flows int) error {
	if done.State != wire.StateDone {
		return fmt.Errorf("session ended %q: %s", done.State, done.Error)
	}
	if n != flows {
		return fmt.Errorf("%d records for %d flows in the trace", n, flows)
	}
	if done.Summary == nil || done.Summary.Records != n {
		return fmt.Errorf("done summary disagrees with the %d records received", n)
	}
	c := done.Summary.Counters
	if c.FlowsStarted != uint64(n) {
		return fmt.Errorf("outcome counts add up to %d, flows started %d", n, c.FlowsStarted)
	}
	if c.FlowsCompleted != uint64(oc["completed"]) || oc["completed"] == 0 {
		return fmt.Errorf("%d completed records, counter says %d", oc["completed"], c.FlowsCompleted)
	}
	return nil
}

// wireReplay re-encodes the session's records as Record frames and
// decodes them again, timing each direction and checking the round trip.
func wireReplay(r *rep, session string, records []wire.Record) error {
	id := r.tr.begin("wire.replay")
	defer r.tr.end(id)
	frames := make([][]byte, len(records))
	t0 := time.Now()
	for i, rec := range records {
		data, err := json.Marshal(wire.FromRecord(rec.FlowRecord()))
		if err != nil {
			return err
		}
		if frames[i], err = json.Marshal(&wire.Frame{V: wire.V1, Event: wire.EventRecord, Session: session, Data: data}); err != nil {
			return err
		}
	}
	enc := time.Since(t0)
	decoded := make([]wire.Record, len(frames))
	t1 := time.Now()
	for i, b := range frames {
		var f wire.Frame
		if err := json.Unmarshal(b, &f); err != nil {
			return err
		}
		if err := json.Unmarshal(f.Data, &decoded[i]); err != nil {
			return err
		}
	}
	dec := time.Since(t1)
	for i := range records {
		if decoded[i] != records[i] {
			return fmt.Errorf("record %d does not survive a wire round trip", records[i].ID)
		}
	}
	n := float64(len(records))
	r.out.Layers["wire.encode_ns_per_record"] = float64(enc.Nanoseconds()) / n
	r.out.Layers["wire.decode_ns_per_record"] = float64(dec.Nanoseconds()) / n
	return nil
}
