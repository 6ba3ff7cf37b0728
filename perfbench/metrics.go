package main

// metricDef names one reported metric and its unit. The lists below
// are the metric sets BENCHMARK.json declares; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd is what every timed run (--trace 0) reports. Each workload
// defines its own operation and unit of work; README.md maps them to
// the user-facing numbers (anneal moves/s, evals/s, job latency).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
}

// deckKeys are the metric-name forms of the Table 2 decks, in
// bench.Table2Suite order.
var deckKeys = []string{"simple_ota", "ota", "two_stage", "folded_cascode", "bicmos"}

// layers are the modules a traced run attributes self time to. "bench"
// is the benchmark's own harness; "gen" is the open-loop generator's
// lateness.
var layers = []string{"netlist", "astrx", "linalg", "awe", "oblx", "verify", "server", "http", "gen", "bench"}

// perLayer is what every traced run (--trace 1) reports. A layer a
// workload does not exercise reads 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"netlist.parse_us", "us", "lower"},
		{"astrx.compile_ms", "ms", "lower"},
		{"astrx.bias_us", "us", "lower"},
		{"astrx.stamp_us", "us", "lower"},
		{"astrx.specs_us", "us", "lower"},
		{"linalg.factor_us", "us", "lower"},
		{"linalg.solve_us", "us", "lower"},
		{"awe.moments_us", "us", "lower"},
		{"awe.fit_us", "us", "lower"},
		{"linalg.sparse_frac", "frac", "higher"},
		{"astrx.allocs_per_eval", "count", "lower"},
		{"astrx.bytes_per_eval", "B", "lower"},
		{"astrx.eval_err_frac", "frac", "lower"},
		{"awe.unstable_per_eval", "count", "lower"},
		{"astrx.batch_lane_frac", "frac", "higher"},
	}
	for _, k := range deckKeys {
		ms = append(ms, metricDef{"oblx.run_s." + k, "s", "lower"})
	}
	ms = append(ms,
		metricDef{"anneal.evals_per_move", "count", "higher"},
		metricDef{"anneal.accept_frac", "frac", "higher"},
		metricDef{"anneal.top_class_share", "frac", "lower"},
		metricDef{"anneal.degenerate_runs", "count", "lower"},
		metricDef{"anneal.cost_geomean", "cost", "lower"},
		metricDef{"oblx.failed_evals_per_eval", "count", "lower"},
		metricDef{"oblx.unattributed_frac", "frac", "lower"},
		metricDef{"verify.design_ms", "ms", "lower"},
		metricDef{"verify.worst_rel_err_p50", "frac", "lower"},
		metricDef{"server.submit_ms.hit", "ms", "lower"},
		metricDef{"http.rtt_ms.hit", "ms", "lower"},
		metricDef{"server.submit_ms.cold", "ms", "lower"},
		metricDef{"server.queue_wait_ms", "ms", "lower"},
		metricDef{"oblx.anneal_s", "s", "lower"},
		metricDef{"server.finish_ms", "ms", "lower"},
		metricDef{"server.backlog_end", "count", "lower"},
		metricDef{"gen.lag_p90_ms", "ms", "lower"},
		metricDef{"rescache.hit_frac", "frac", "higher"},
		metricDef{"durable.bytes_per_job", "B", "lower"},
		metricDef{"durable.syncs_per_job", "count", "lower"},
		metricDef{"job_cold.n", "count", "higher"},
		metricDef{"job_hit.n", "count", "higher"},
		metricDef{"job_hit.tail_pct", "pct", "higher"},
		metricDef{"job_hit.tail_ms", "ms", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
		metricDef{"trace.attributed_frac", "frac", "higher"},
		metricDef{"fail_frac", "frac", "lower"},
	)
	for _, l := range layers {
		ms = append(ms, metricDef{"self_frac." + l, "frac", "lower"})
	}
	return ms
}()
