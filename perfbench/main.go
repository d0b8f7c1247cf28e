// Command perfbench is the Horse benchmark. It runs one named workload as
// a closed loop of repetitions for a fixed host-time budget, checks every
// repetition's output, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload ixp-day --seed 1 --seconds 15 --trace 0
//
// Each repetition is a fresh child process (the same binary, selected by
// the PERFBENCH_CHILD environment variable) that sets the workload up,
// runs it once and reports what it measured, so a repetition's peak
// resident memory never carries over an earlier repetition's peak.
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the loop alternates untraced and traced repetitions; a traced one
// records spans around the calls into each layer, reads the layers'
// public counters and profiles the run's CPU, and the result holds the
// per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a repetition's parameters from the parent to a child.
const childEnv = "PERFBENCH_CHILD"

// childArgs is one repetition's parameters.
type childArgs struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Small    bool   `json:"small"`
	Rep      int    `json:"rep"`
}

// metricValue is one named metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if env := os.Getenv(childEnv); env != "" {
		os.Exit(childMain(env))
	}
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "host seconds of repetitions to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if lookupWorkload(*workload) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := runBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// fidelitySeed generates the traffic of every fidelity probe. The error
// of one trace swings by half its value from seed to seed, so fct_relerr
// is measured on one fixed trace per workload, where it is deterministic.
const fidelitySeed = 1

// minReps is the least number of repetitions of each kind (untraced,
// traced) a run makes, however long they take.
const minReps = 3

// runBench drives the closed loop of child repetitions for the time
// budget and folds their reports into the result line. small selects the
// reduced-size workloads of the self-test.
func runBench(name string, seed int64, budget time.Duration, trace, small bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	var plain, traced []repResult
	res := &result{Metrics: map[string]metricValue{}}
	var digest string
	start := time.Now()
	for i := 0; ; i++ {
		wantTraced := trace && i%2 == 0 && i > 0
		if time.Since(start) >= budget && len(plain) >= minReps && (!trace || len(traced) >= minReps) {
			break
		}
		res.Attempted++
		rr, err := runChild(exe, childArgs{Workload: name, Seed: seed, Traced: wantTraced, Small: small, Rep: i})
		if err == nil && rr.Err != "" {
			err = fmt.Errorf("output check: %s", rr.Err)
		}
		if err == nil {
			// Every repetition of one seed, traced or not, must produce
			// the same records.
			if digest == "" {
				digest = rr.Digest
			} else if rr.Digest != digest {
				err = fmt.Errorf("record digest %s differs from the first repetition's %s", rr.Digest, digest)
			}
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s rep %d (traced=%v): %v\n", name, i, wantTraced, err)
			if res.Failed > 2 {
				break
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d traced=%v: setup %.6fs run %.6fs flows %d rss %.1fMiB\n",
			name, i, wantTraced, rr.SetupS, rr.RunS, rr.Flows, rr.PeakRSSMiB)
		switch {
		case i == 0:
			// The first repetition warms the page cache with the binary
			// and its inputs; it is checked but not measured.
		case wantTraced:
			traced = append(traced, rr)
		default:
			plain = append(plain, rr)
		}
	}
	if len(plain) == 0 || (trace && len(traced) == 0) {
		return res, nil // correct stays false
	}
	if trace {
		layerMetrics(res, plain, traced)
	} else {
		relerr, err := lookupWorkload(name).fidelity(fidelitySeed, small)
		if err != nil || !(relerr > 0) || math.IsInf(relerr, 0) {
			res.Failed++
			res.Attempted++
			fmt.Fprintf(os.Stderr, "perfbench: %s fidelity probe: relerr=%v err=%v\n", name, relerr, err)
		}
		endToEndMetrics(res, plain, relerr)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v: %d repetitions (%d traced) in %.1fs, digest %s\n",
		name, seed, trace, res.Attempted, len(traced), time.Since(start).Seconds(), digest)
	return res, nil
}

// runChild runs one repetition in a child process and reads its report
// and peak resident memory.
func runChild(exe string, a childArgs) (repResult, error) {
	var rr repResult
	arg, err := json.Marshal(a)
	if err != nil {
		return rr, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(arg))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rr, fmt.Errorf("child: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rr); err != nil {
		return rr, fmt.Errorf("child report: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rr.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return rr, nil
}

// endToEndMetrics fills the untraced run's metrics: medians over the
// repetitions, and the once-per-invocation fidelity error.
func endToEndMetrics(res *result, reps []repResult, relerr float64) {
	col := func(f func(r repResult) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	set := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(name)} }
	set("setup_s", col(func(r repResult) float64 { return r.SetupS }))
	set("flows_per_s", col(func(r repResult) float64 { return float64(r.Flows) / r.RunS }))
	set("peak_rss_mib", col(func(r repResult) float64 { return r.PeakRSSMiB }))
	set("allocs_per_flow", col(func(r repResult) float64 { return float64(r.Mallocs) / float64(r.Flows) }))
	set("fct_relerr", relerr)
}

// layerMetrics fills the traced run's metrics: the median of each layer
// metric over the traced repetitions, CPU shares from the profile samples
// of all of them, and the tracing overhead against the untraced ones.
func layerMetrics(res *result, plain, traced []repResult) {
	for _, m := range perLayer {
		var v []float64
		for _, r := range traced {
			v = append(v, r.Layers[m.name])
		}
		res.Metrics[m.name] = metricValue{median(v), m.unit}
	}
	total := map[string]int64{}
	for _, r := range traced {
		for k, n := range r.Samples {
			total[k] += n
		}
	}
	for mod, share := range cpuShares(total) {
		name := shareMetric(mod)
		res.Metrics[name] = metricValue{share, unitOf(name)}
	}
	runS := func(reps []repResult) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = r.RunS
		}
		return median(v)
	}
	res.Metrics["trace.overhead"] = metricValue{runS(traced)/runS(plain) - 1, unitOf("trace.overhead")}
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice). v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
