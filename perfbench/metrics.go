package main

// metric names one reported metric and its unit.
type metric struct {
	name string
	unit string
}

// endToEnd lists the metrics of an untraced run: what a user of the
// simulator sees, in host time.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"flows_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"allocs_per_flow", "allocs/flow"},
	{"fct_relerr", "ratio"},
}

// perLayer lists the per-layer metrics a traced repetition measures
// itself. A layer metric reads 0 on a workload that does not run the
// layer, or whose layer the benchmark cannot reach from outside the
// program (the engine of stream-service runs inside the service).
var perLayer = []metric{
	{"horse.new_s", "s"},
	{"horse.load_s", "s"},
	{"netgraph.build_s", "s"},
	{"traffic.gen_s", "s"},
	{"simcore.events", "count"},
	{"simcore.events_per_flow", "events/flow"},
	{"simcore.events_per_s", "1/s"},
	{"simcore.queue_len_peak", "count"},
	{"fairshare.rate_changes", "count"},
	{"fairshare.active_flows_peak", "count"},
	{"controller.handle_calls", "count"},
	{"controller.handle_s", "s"},
	{"controller.flow_mods", "count"},
	{"dataplane.walk_ns_p50", "ns"},
	{"dataplane.walk_ns_p99", "ns"},
	{"dataplane.walk_delivered_ratio", "ratio"},
	{"dataplane.walk_samples", "count"},
	{"stats.link_samples", "count"},
	{"stats.records", "count"},
	{"packetsim.packets_forwarded", "count"},
	{"packetsim.events", "count"},
	{"packetsim.retransmits", "count"},
	{"packetsim.packets_lost", "count"},
	{"packetsim.shard_imbalance", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.first_record_ms", "ms"},
	{"service.record_gap_us_p50", "us"},
	{"service.record_gap_us_p99", "us"},
	{"service.record_gaps", "count"},
	{"wire.bytes_per_record", "B"},
	{"wire.encode_ns_per_record", "ns"},
	{"wire.decode_ns_per_record", "ns"},
	{"runtime.gc_cpu_share", "fraction"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_flow", "B"},
}

// shareModules are the modules whose share of the traced run's CPU
// profile is reported on its own; the profile charges every other module
// to "other".
var shareModules = []string{
	"simcore", "eventq", "fairshare", "flowsim", "controller", "dataplane",
	"stats", "packetsim", "tcpmodel", "service", "wire", "perfbench",
}

// Profile buckets besides the modules: samples of the runtime's
// background GC workers, and samples with no module frame at all.
const (
	bucketGC    = "gc"
	bucketOther = "other"
)

// shareMetric names the metric of one profile bucket's CPU share.
func shareMetric(bucket string) string {
	if bucket == bucketGC {
		return "runtime.gc_bg_cpu_share"
	}
	return bucket + ".cpu_share"
}

// shareBuckets lists every bucket of the profile attribution.
func shareBuckets() []string {
	return append(append([]string(nil), shareModules...), bucketGC, bucketOther)
}

// perLayerCatalogue lists every metric of a traced run, in report order.
func perLayerCatalogue() []metric {
	out := append([]metric(nil), perLayer...)
	for _, b := range shareBuckets() {
		out = append(out, metric{shareMetric(b), "fraction"})
	}
	return append(out, metric{"trace.overhead", "ratio"})
}

// unitOf returns the unit of a named metric.
func unitOf(name string) string {
	for _, m := range append(endToEnd, perLayerCatalogue()...) {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}
