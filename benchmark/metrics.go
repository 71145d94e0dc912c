package main

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the baseline's median by which an end-to-end metric may get worse
// before it counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the engine sees, the same on every workload.
// The timing bounds are about three times the spread between ten runs with
// ten seeds on the 2-core reference machine (see README.md): on a shared
// machine a tighter bound would reject an unchanged program.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// perLayer is what single layers do, measured from outside in a traced run.
// A *_ms metric is the layer's time per traced operation. A layer the
// workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "relation.filter_ms", Unit: "ms", Better: "lower"},
	{Name: "relation.examined_per_row", Unit: "ratio", Better: "lower"},
	{Name: "fbuild.build_ms", Unit: "ms", Better: "lower"},
	{Name: "fbuild.singletons", Unit: "count", Better: "lower"},
	{Name: "fdb.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "fdb.exec_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fdb.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "delta.write_ms", Unit: "ms", Better: "lower"},
	{Name: "fdb.rows_ms", Unit: "ms", Better: "lower"},
	{Name: "fdb.rows_out", Unit: "count", Better: "lower"},
	{Name: "wire.encode_rows_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_rows_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.reply_bytes", Unit: "count", Better: "lower"},
	{Name: "wire.roundtrip_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fdb.prepare_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "fdb.plancache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "opt.ftree_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.fplan_ms", Unit: "ms", Better: "lower"},
	{Name: "fplan.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "fplan.fallback_ops", Unit: "count", Better: "lower"},
	{Name: "frep.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "frep.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "frep.ordered_ms", Unit: "ms", Better: "lower"},
	{Name: "frep.setop_ms", Unit: "ms", Better: "lower"},
	{Name: "frep.compression", Unit: "ratio", Better: "higher"},
	{Name: "store.save_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.file_mb", Unit: "MB", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "gc_cycles", Unit: "count", Better: "lower"},
	{Name: "unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}
