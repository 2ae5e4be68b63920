package main

// This file is the catalogue BENCHMARK.json is written from: the
// workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics. The smoke test fails when the two disagree.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

var workloadDefs = []workloadDef{
	{"paper-baseline", "full snapshots: nn serialisation, blobstore CRC and a few large backend copies (memory backend) do the work; hashing, cas, codec, cache, server and cluster are bypassed"},
	{"paper-update", "per-layer hashing and diffing dominate saves and recursive chain application dominates recovers; many hash documents instead of one big blob"},
	{"paper-provenance", "saves write documents only and recovers retrain, so docstore, dataset and nn.Train do the work and the blob path almost none; smallest stored_ratio"},
	{"dedup-serve", "chunker, SHA-256, zlib, refcounts and the chunk cache do the work on thousands of small objects; hot models fit the cache, the set is 5x larger"},
	{"remote-pull", "one management server on loopback: multipart saves, cold and warm chunk pulls and selective recovers put the work in server, Gate and pull client"},
	{"cluster-mixed", "three nodes behind the router at R=2; in every step one caller saves or selects while the other recovers a whole set, so reads run beside quorum writes; only here do fan-out, quorum and journal run"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are what a user of the system sees. Every workload emits
// all of them: "U1" is an operation on a set with no prior state, "U3"
// on a derived set.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.15},
	{"tts_u1_p50_ms", "ms", lower, 0.10},
	{"tts_u3_p50_ms", "ms", lower, 0.10},
	{"ttr_u1_p50_ms", "ms", lower, 0.10},
	{"ttr_u3_p50_ms", "ms", lower, 0.10},
	{"partial_p50_ms", "ms", lower, 0.10},
	{"partial_p90_ms", "ms", lower, 0.15},
	{"stored_ratio", "ratio", lower, 0.01},
	{"ops_s", "1/s", higher, 0.10},
	{"alloc_ratio", "ratio", lower, 0.05},
}

// perLayerDefs come from the traced run: in-situ numbers from the spans
// the wrapped seams record, and direct drives of the layers that have no
// seam on the workload's own bytes. A layer a workload bypasses reports
// zero work there.
var perLayerDefs = []metricDef{
	{"nn.serialize_mb_s", "MB/s", higher, 0},
	{"nn.deserialize_mb_s", "MB/s", higher, 0},
	{"nn.train_us_per_sample", "us", lower, 0},
	{"hashing.model_mb_s", "MB/s", higher, 0},

	{"core.save_self_ms", "ms", lower, 0},
	{"core.recover_self_ms", "ms", lower, 0},
	{"core.ttr_depth3_ms", "ms", lower, 0},
	{"core.tts_u3_p90_ms", "ms", lower, 0},
	{"core.ttr_u3_p90_ms", "ms", lower, 0},
	{"core.mmlib_tts_u1_ms", "ms", lower, 0},
	{"core.mmlib_ttr_u1_ms", "ms", lower, 0},
	{"core.mmlib_stored_ratio", "ratio", lower, 0},

	{"cas.chunk_mb_s", "MB/s", higher, 0},
	{"cas.put_mb_s", "MB/s", higher, 0},
	{"cas.put_dup_mb_s", "MB/s", higher, 0},
	{"cas.get_mb_s", "MB/s", higher, 0},
	{"cas.getrange_us", "us", lower, 0},
	{"cas.dedup_hit_ratio", "ratio", higher, 0},
	{"cas.raw_probe_miss_per_recover", "count", lower, 0},

	{"codec.zlib_encode_mb_s", "MB/s", higher, 0},
	{"codec.zlib_decode_mb_s", "MB/s", higher, 0},
	{"codec.zlib_ratio", "ratio", lower, 0},
	{"codec.tlz_encode_mb_s", "MB/s", higher, 0},
	{"codec.tlz_decode_mb_s", "MB/s", higher, 0},
	{"codec.tlz_ratio", "ratio", lower, 0},

	{"cache.get_hit_ns", "ns", lower, 0},
	{"cache.put_ns", "ns", lower, 0},
	{"cache.hit_ratio", "ratio", higher, 0},
	{"cache.evictions", "count", lower, 0},

	{"blobstore.put_mb_s", "MB/s", higher, 0},
	{"blobstore.get_mb_s", "MB/s", higher, 0},
	{"blobstore.getrange_us", "us", lower, 0},

	{"docstore.insert_us", "us", lower, 0},
	{"docstore.get_us", "us", lower, 0},
	{"docstore.ops_per_save", "count", lower, 0},

	{"backend.busy_ms", "ms", lower, 0},
	{"backend.save_busy_ms", "ms", lower, 0},
	{"backend.recover_busy_ms", "ms", lower, 0},
	{"backend.put_ops", "count", lower, 0},
	{"backend.get_ops", "count", lower, 0},
	{"backend.notfound_ops", "count", lower, 0},
	{"backend.bytes_written", "B", lower, 0},
	{"backend.bytes_read", "B", lower, 0},
	{"backend.dir_put_mb_s", "MB/s", higher, 0},
	{"backend.dir_get_mb_s", "MB/s", higher, 0},

	{"server.save_busy_ratio", "ratio", lower, 0},
	{"server.recover_busy_ratio", "ratio", lower, 0},
	{"server.recipe_busy_ratio", "ratio", lower, 0},
	{"server.chunk_busy_ratio", "ratio", lower, 0},
	{"server.client_self_ratio", "ratio", lower, 0},
	{"server.queue_wait_ratio", "ratio", lower, 0},
	{"server.requests_per_pull", "count", lower, 0},
	{"server.pull_cache_hit_ratio", "ratio", higher, 0},
	{"server.wire_ratio", "ratio", lower, 0},
	{"server.retries", "count", lower, 0},

	{"cluster.router_self_ratio", "ratio", lower, 0},
	{"cluster.node_busy_ratio", "ratio", lower, 0},
	{"cluster.requests_per_save", "count", lower, 0},
	{"cluster.read_failovers", "count", lower, 0},
	{"cluster.rebalance_mb_s", "MB/s", higher, 0},
	{"cluster.rebalance_bytes_ratio", "ratio", lower, 0},

	{"scrub.pass_mb_s", "MB/s", higher, 0},
	{"scrub.heal_mb_s", "MB/s", higher, 0},
	{"scrub.fg_partial_p90_ratio", "ratio", lower, 0},

	{"process.peak_rss_mb", "MB", lower, 0},
	{"process.gc_cycles", "count", lower, 0},
	{"process.alloc_bytes_per_op", "B", lower, 0},
	{"trace.overhead_ratio", "ratio", lower, 0},
	{"trace.unattributed_ratio", "ratio", lower, 0},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
