package main

// metricDef describes one reported metric. The tables below are the
// single definition the program prints from, -compare judges with and
// BENCHMARK.json is checked against (see TestBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which the metric
	// may worsen before -compare calls it a regression. Zero means any
	// worsening counts (fail_ratio). Per-layer metrics carry none.
	Bound float64
}

// gated is the end_to_end list of BENCHMARK.json. The driver that reads
// that file wants every listed metric from every run of every workload,
// never a 0, and refuses the benchmark when ten runs of one commit spread
// (interquartile range over median) wider than a metric's bound.
//
// On the reference sandbox no microsecond holds that: the host moves
// every request of a run, and every control round trip taken between
// them (control in load.go), by one factor that wanders by 25-40% within
// minutes, while a register-only loop repeats within 2% (README,
// "Pilot"). So the two timings the gate reads are multiples of the
// control: a median over the median control of the same loop. Those
// repeat within 0.01-0.12 where the microseconds spread by 0.25-0.60.
// The microseconds, the tails and the throughput are printed beside
// them (ungated below); no tail repeats within the cap, with or without
// the control.
//
// A bound is three times the widest spread of the pilots, no lower than
// 0.10 and no higher than 0.25, the cap: the driver asks for spreads
// below a third of the bound. setup_s and server_rss_mb are what the
// driver's file format asks for in their own units.
var gated = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "read_p50_rel", Unit: "ratio", Better: "lower", Bound: 0.20},
	{Name: "pass_p50_rel", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// ungated are the end-to-end figures in their own units, which move
// with the sandbox; those of one or two workloads only; and fail_ratio,
// which is 0 on every healthy run (the contract line carries failed and
// attempted instead). They are printed, written to -out files and judged
// by -compare like the gated ones.
var ungated = []metricDef{
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "pass_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "pass_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "control_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25},       // write_mix, replica_lag
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.25},       // write_mix
	{Name: "write_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},  // write_mix, replica_lag
	{Name: "visible_lag_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}, // replica_lag
	{Name: "visible_lag_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25}, // replica_lag
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},          // write_mix
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0},
}

// perLayer is what the traced run reports, layer by layer. Times are
// medians over the sample.
var perLayer = []metricDef{
	{Name: "client.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "net.self_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.write_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.stream_emit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.timeouts", Unit: "count", Better: "lower"},
	{Name: "prefcqa.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "prefcqa.snapshot_after_write_us", Unit: "us", Better: "lower"},
	{Name: "prefcqa.query_us", Unit: "us", Better: "lower"},
	{Name: "prefcqa.self_us", Unit: "us", Better: "lower"},
	{Name: "prefcqa.mutate_us", Unit: "us", Better: "lower"},
	{Name: "prefcqa.open_ms", Unit: "ms", Better: "lower"},
	{Name: "prefcqa.repl_apply_us", Unit: "us", Better: "lower"},
	{Name: "prefcqa.repl_commit_us", Unit: "us", Better: "lower"},
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.eval_us", Unit: "us", Better: "lower"},
	{Name: "query.chain_us", Unit: "us", Better: "lower"},
	{Name: "query.triangle_us", Unit: "us", Better: "lower"},
	{Name: "query.lowsel_us", Unit: "us", Better: "lower"},
	{Name: "query.exec_yannakakis", Unit: "count", Better: "higher"},
	{Name: "query.exec_wcoj", Unit: "count", Better: "higher"},
	{Name: "query.exec_greedy", Unit: "count", Better: "higher"},
	{Name: "cqa.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "cqa.self_us", Unit: "us", Better: "lower"},
	{Name: "cqa.open_answers_us", Unit: "us", Better: "lower"},
	{Name: "cqa.closed_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cqa.open_direct_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.count_cached_us", Unit: "us", Better: "lower"},
	{Name: "core.count_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "conflict.build_ms", Unit: "ms", Better: "lower"},
	{Name: "conflict.apply_delta_us", Unit: "us", Better: "lower"},
	{Name: "priority.from_relation_ms", Unit: "ms", Better: "lower"},
	{Name: "priority.rebase_us", Unit: "us", Better: "lower"},
	{Name: "relation.load_ms", Unit: "ms", Better: "lower"},
	{Name: "relation.index_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "relation.insert_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.open_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.read_from_us", Unit: "us", Better: "lower"},
	{Name: "replication.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "replication.follower_side_ms", Unit: "ms", Better: "lower"},
	{Name: "replication.seq_gap_p50", Unit: "count", Better: "lower"},
	{Name: "trace.replay_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.negative_self_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.reconcile_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.engine_share", Unit: "ratio", Better: "lower"},
}
