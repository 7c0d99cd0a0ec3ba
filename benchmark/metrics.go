package main

import (
	"encoding/json"
	"io"
)

// runSeconds is BENCHMARK.json's run_seconds: eight windows.
const runSeconds = 16

// metricDef describes one metric of the contract. BENCHMARK.json lists
// name, unit and better; layer and moves are the prediction written down
// before any optimisation: which end-to-end metric the layer's number
// should move, and on which workload (README.md has the same table).
type metricDef struct {
	name, unit, better string
	layer, moves       string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics; every workload reports all of them
// with --trace 0. The bounds are calibrated in README.md.
var endToEnd = []metricDef{
	{name: "keys_per_s", unit: "keys/s", better: "higher", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "disk_mb", unit: "MiB", better: "lower", bound: 0.05},
}

// perLayer are the ungated metrics of single layers; every workload
// reports all of them with --trace 1, 0 where one does not apply.
var perLayer = []metricDef{
	pl("read_p99_us", "us", "lower", "end to end, ungated", "too noisy on dlrm_cluster to gate; the tail of the workload's own reads, tracing off"),
	pl("write_p50_us", "us", "lower", "end to end, ungated", "no writes on kv_read_hot, so it cannot be a gated metric; Put/RMW/PutBatch calls, tracing off"),
	pl("write_p99_us", "us", "lower", "end to end, ungated", "as write_p50_us"),
	pl("peak_rss_mb", "MiB", "lower", "end to end, ungated", "VmHWM of the harness over the untraced half plus every server's; the Go heap's peak is bimodal run to run (10-16% interquartile spread), too wide to gate"),
	pl("train.samples_per_s", "samples/s", "higher", "train", "keys_per_s on dlrm_* is exactly 16x this (8 fields, one lookup and one update each)"),
	pl("train.emb_share", "ratio", "lower", "train", "caps what any storage layer can buy of keys_per_s on dlrm_*"),
	pl("train.stall_p50_us", "us", "lower", "train", "keys_per_s on dlrm_*"),
	pl("train.stall_p99_us", "us", "lower", "train", "keys_per_s on dlrm_cluster (a batch waits for its slowest owner)"),
	pl("train.gather_self_us_per_step", "us", "lower", "train", "keys_per_s on dlrm_*"),
	pl("train.compute_us_per_sample", "us", "lower", "train+models+nn", "keys_per_s on dlrm_*; shares cores with client and server on dlrm_cluster"),
	pl("train.unique_keys_per_step", "keys", "lower", "train+data", "none: a property of the input, here to notice if it moves"),
	pl("api.self_us_per_call", "us", "lower", "mlkv+driver+core", "keys_per_s on dlrm_local_ooc; none on kv_mixed_remote"),
	pl("core.staleness_waits", "count", "lower", "core", "keys_per_s on dlrm_local_ooc"),
	pl("core.prefetch_useful", "ratio", "higher", "core", "read_p50_us and keys_per_s on dlrm_local_ooc"),
	pl("core.prefetch_dropped", "count", "lower", "core", "keys_per_s on dlrm_local_ooc"),
	pl("hotcache.hit_ratio", "ratio", "higher", "hotcache", "keys_per_s, read_p50_us on kv_read_hot; zero elsewhere (cache off)"),
	pl("hotcache.evictions", "count", "lower", "hotcache", "keys_per_s on kv_read_hot"),
	pl("hotcache.saved_us_per_call", "us", "higher", "hotcache", "read_p50_us on kv_read_hot"),
	pl("kv.shard4_over_shard1", "ratio", "lower", "kv", "keys_per_s, read_p99_us on kv_read_hot; none on the 1-shard workloads"),
	pl("faster.us_per_key_read", "us", "lower", "faster+epoch", "keys_per_s on dlrm_local_ooc; read_p50_us on kv_mixed_remote"),
	pl("faster.us_per_key_write", "us", "lower", "faster+epoch", "keys_per_s on dlrm_local_ooc; write_p99_us on kv_mixed_remote"),
	pl("faster.mem_hit_ratio", "ratio", "higher", "faster", "keys_per_s on dlrm_local_ooc; must stay 1 on kv_read_hot"),
	pl("faster.disk_reads_per_kkey", "count", "lower", "faster", "keys_per_s on dlrm_local_ooc"),
	pl("faster.write_amp", "ratio", "lower", "faster", "disk_mb and write_p99_us on kv_mixed_remote"),
	pl("faster.rcu_share", "ratio", "lower", "faster", "disk_mb on kv_mixed_remote, dlrm_*"),
	pl("faster.group_commits", "count", "higher", "faster", "write_p99_us on kv_mixed_remote"),
	pl("faster.reopen_stale_keys", "count", "lower", "faster", "none: sampled keys that read differently after checkpoint+reopen; non-zero on dlrm_local_ooc at the defining commit (README, Known findings)"),
	pl("wire.codec_us_per_frame", "us", "lower", "wire", "keys_per_s on kv_mixed_remote (one key per frame) and dlrm_cluster"),
	pl("wire.bytes_per_key", "B", "lower", "wire", "keys_per_s on dlrm_cluster"),
	pl("wire.frames_per_step", "count", "lower", "wire+client", "keys_per_s on dlrm_cluster (per trainer step); per call on kv_*"),
	pl("serve.overhead_us_per_call", "us", "lower", "client+wire+server", "read_p50_us, keys_per_s on kv_mixed_remote; keys_per_s on dlrm_cluster"),
	pl("server.store_call_p50_us", "us", "lower", "server", "read_p50_us on kv_mixed_remote"),
	pl("server.store_call_p99_us", "us", "lower", "server", "read_p99_us on kv_mixed_remote"),
	pl("client.queue_wire_us", "us", "lower", "client", "read_p50_us on kv_mixed_remote"),
	pl("client.dial_retries", "count", "lower", "client", "none unless a connection breaks; must stay 0"),
	pl("server.errors", "count", "lower", "server", "failed ops; must stay 0"),
	pl("cluster.overhead_us_per_call", "us", "lower", "cluster", "keys_per_s on dlrm_cluster only"),
	pl("cluster.redirects", "count", "lower", "cluster", "keys_per_s on dlrm_cluster; 0 on a stable topology"),
	pl("cluster.owners_per_batch", "ratio", "lower", "cluster", "read_p50_us on dlrm_cluster (a batch waits for every owner)"),
	pl("cluster.replica_applied", "ratio", "higher", "cluster", "none on speed: replication keeping up (1 = replica applied every put of n0)"),
	pl("trace.overhead_share", "ratio", "lower", "benchmark", "none: what tracing costs, so traced numbers can be read"),
	pl("trace.residual_us_per_call", "us", "lower", "benchmark", "none: the workload's own time per call (dlrm_*: storage time per step) minus the top rung's, i.e. what the rungs do not explain"),
}

func pl(name, unit, better, layer, moves string) metricDef {
	return metricDef{name: name, unit: unit, better: better, layer: layer, moves: moves}
}

// printContract writes BENCHMARK.json from the lists above, so the index
// the driver reads cannot drift from what the program reports.
func printContract(w io.Writer) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		c.Workloads = append(c.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, gated{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c) //nolint:errcheck // stdout
}
