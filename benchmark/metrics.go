package main

// metricDecl names one reported metric and its unit.
type metricDecl struct{ name, unit string }

// End-to-end metrics. Every workload reports every one of them; the
// README's metric table gives what each means on each workload.
var (
	setupS        = metricDecl{"setup_s", "s"}
	buildColdS    = metricDecl{"build_cold_s", "s"}
	buildWarmS    = metricDecl{"build_warm_s", "s"}
	accuracy      = metricDecl{"accuracy", "ratio"}
	peakRSSMB     = metricDecl{"peak_rss_mb", "MiB"}
	throughputRPS = metricDecl{"throughput_rps", "1/s"}
	latencyP50MS  = metricDecl{"latency_p50_ms", "ms"}
	reloadMS      = metricDecl{"reload_ms", "ms"}
	recallAt10    = metricDecl{"recall_at_10", "ratio"}
	liveHeapMB    = metricDecl{"live_heap_mb", "MiB"}
)

var endToEnd = []metricDecl{
	setupS, buildColdS, buildWarmS, accuracy, peakRSSMB,
	throughputRPS, latencyP50MS, reloadMS, recallAt10, liveHeapMB,
}

// Per-layer metrics a workload measures itself; the rest come from the
// layer census every traced run ends with (census.go).
var (
	// latencyP99MS is reported by the traced run only: on a shared
	// 2-vCPU machine it moves by more than a tenth from run to run, too
	// much to hold an end-to-end bound.
	latencyP99MS    = metricDecl{"latency_p99_ms", "ms"}
	goAllocMB       = metricDecl{"go.alloc_mb", "MiB"}
	goGCCycles      = metricDecl{"go.gc_cycles", "count"}
	goGCPauseMS     = metricDecl{"go.gc_pause_ms", "ms"}
	traceOverheadPc = metricDecl{"trace.overhead_pct", "%"}
)

// perLayer is what every traced run reports.
var perLayer = []metricDecl{
	latencyP99MS,
	{"textify.fit_ms", "ms"},
	{"textify.transform_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"graph.nodes", "count"},
	{"graph.edges", "count"},
	{"embed.mf_ms", "ms"},
	{"core.textify_stage.cold_ms", "ms"},
	{"core.graph_stage.cold_ms", "ms"},
	{"core.embed_stage.cold_ms", "ms"},
	{"core.textify_stage.warm_ms", "ms"},
	{"core.graph_stage.warm_ms", "ms"},
	{"core.embed_stage.warm_ms", "ms"},
	{"core.cache_bytes", "bytes"},
	{"core.featurize_ms", "ms"},
	{"core.bundle_save_ms", "ms"},
	{"core.bundle_load_ms", "ms"},
	{"serve.reload.swap_ms", "ms"},
	{"serve.envelope_us.p50", "us"},
	{"core.featurize_row_us.p50", "us"},
	{"serve.row_cache.hit_ratio", "ratio"},
	{"serve.allocs_per_req", "count"},
	{"serve.bytes_per_req", "bytes"},
	{"ann.build_s", "s"},
	{"ann.search_name_us.p50", "us"},
	{"ann.search_vector_us.p50", "us"},
	{"ann.exact_us.p50", "us"},
	{"ann.cache.hit_ratio", "ratio"},
	goAllocMB,
	goGCCycles,
	goGCPauseMS,
	traceOverheadPc,
}

var workloads = []workload{
	{
		name: "featurize",
		why:  "window of POST /v1/featurize of Zipf-drawn base rows, some unseen, with periodic hot reloads: envelope, row cache and FeaturizeRow",
		run:  runFeaturize,
	},
	{
		name: "neighbors",
		why:  "window of GET token and POST raw-vector /v1/neighbors over an HNSW index twice the ANN cache: the ANN search does most of the work",
		run:  runNeighbors,
	},
}
