package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"horse"
	"horse/internal/openflow"
)

// span is one timed interval around a call into a layer.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`   // index of the enclosing span, -1 at the root
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps a repetition's spans in memory. It is used from one
// goroutine: spans nest as a stack, so a span's children never overlap.
// The nil tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// timed runs fn inside a span and returns its host time, traced or not.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfSeconds sums the self time of every span with the given name: its
// duration minus the part its child spans cover.
func (t *tracer) selfSeconds(name string) float64 {
	if t == nil {
		return 0
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var ns int64
	for i, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start - child[i]
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedController wraps a controller so that every Handle call is a span.
type timedController struct {
	horse.Controller
	tr    *tracer
	calls int
}

func (c *timedController) Handle(ctx *horse.Context, msg openflow.Message) {
	c.calls++
	id := c.tr.begin("controller.handle")
	c.Controller.Handle(ctx, msg)
	c.tr.end(id)
}

// digest hashes flow records in order: the byte-identity contract the
// simulator keeps across repeated runs, shard counts and tracing.
type digest struct {
	h hash.Hash64
	b [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) put(v uint64) {
	binary.LittleEndian.PutUint64(d.b[:], v)
	d.h.Write(d.b[:])
}

func (d *digest) add(r horse.FlowRecord) {
	d.put(uint64(r.ID))
	d.put(uint64(r.Arrival))
	d.put(uint64(r.End))
	d.put(math.Float64bits(r.SizeBits))
	d.put(math.Float64bits(r.SentBits))
	if r.Completed {
		d.put(1)
	} else {
		d.put(0)
	}
	d.h.Write([]byte(r.Outcome))
	d.put(uint64(r.PathLen))
	d.put(uint64(r.Punts))
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// outcomes tallies records by outcome and checks each outcome is known.
func outcomes(recs []horse.FlowRecord) (map[string]int, error) {
	out := map[string]int{}
	for _, r := range recs {
		switch r.Outcome {
		case "completed", "dropped", "looped", "stuck", "killed":
		default:
			return nil, fmt.Errorf("record %d has unknown outcome %q", r.ID, r.Outcome)
		}
		if r.Completed != (r.Outcome == "completed") {
			return nil, fmt.Errorf("record %d: completed=%v with outcome %q", r.ID, r.Completed, r.Outcome)
		}
		out[r.Outcome]++
	}
	return out, nil
}

// runtimeSnap is the process state read around a measured run.
type runtimeSnap struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	gcCPU, cpu, idle    float64
}

var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSnap{
		mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC,
		gcCPU: f(0), cpu: f(1), idle: f(2),
	}
}

// gcShare is the GC's share of the CPU time the process used between two
// snapshots (runtime/metrics estimates, refreshed at each GC cycle).
func gcShare(a, b runtimeSnap) float64 {
	busy := (b.cpu - b.idle) - (a.cpu - a.idle)
	if busy <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / busy
}
