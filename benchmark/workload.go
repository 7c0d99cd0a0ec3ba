package main

import (
	mlkv "github.com/llm-db/mlkv-go"
)

// scale is the one factor by which the sizes of ISSUE 11 were cut so that
// 92 runs of ten seconds, each with three set-ups, fit the driver's
// 57-minute cap: record counts, memory budgets and key spaces are all
// 1/scale of the issue's, which keeps every data÷memory ratio.
const scale = 8

type targetKind int

const (
	targetLocal    targetKind = iota // mlkv.Connect(dir)
	targetLoopback                   // one mlkv-server subprocess
	targetCluster                    // two primaries + a replica of n0
)

func (k targetKind) String() string { return [...]string{"local", "loopback", "cluster"}[k] }

// spec is one workload. Sizes are already scaled.
type spec struct {
	name, why string
	target    targetKind
	sessions  int // closed-loop callers (= nproc of the reference box)
	dim       int
	records   int   // keys loaded before timing
	memory    int64 // store memory budget in bytes (server: -buffer-mb)
	shards    int
	cache     int // hot-tier entries, 0 = off
	bound     int64

	// kv_* workloads.
	batch               int // keys per call
	zipf                float64
	readShare, putShare float64 // the rest is RMW
	streamOps           int     // pre-generated ops per session (cycled)
	warmOps             int     // untimed ops per session during set-up
	noDisk              bool    // assert DiskReads == 0 && BytesFlushed == 0

	// dlrm_* workloads.
	dlrm        bool
	fields      int
	fieldCard   uint64
	lookahead   int
	warmSamples int64
	aucFloor    float64

	// Traced pass: calls replayed at each rung.
	rungOps int
}

var specs = []*spec{
	{
		name:   "dlrm_local_ooc",
		why:    "DLRM training on a local dir with embeddings ~40x memory: faster disk reads and flush, core staleness waits and lookahead carry it; no serving layer runs",
		target: targetLocal, sessions: 2, dim: 16,
		dlrm: true, fields: 8, fieldCard: 500_000 / scale, lookahead: 16,
		records: 8 * 500_000 / scale, memory: (8 << 20) / scale, shards: 1, bound: 8,
		warmSamples: 20_000, aucFloor: 0.74, rungOps: 10_000,
	},
	{
		name:   "dlrm_cluster",
		why:    "the identical trainer and sample stream against two primaries plus a replica: client, wire, server and cluster fan-out and replication dominate the same storage work",
		target: targetCluster, sessions: 2, dim: 16,
		dlrm: true, fields: 8, fieldCard: 500_000 / scale, lookahead: 16,
		records: 8 * 500_000 / scale, memory: (8 << 20) / scale, shards: 1, bound: mlkv.ASP,
		warmSamples: 10_000, aucFloor: 0.72, rungOps: 10_000,
	},
	{
		name:   "kv_read_hot",
		why:    "read-only 256-key Zipf batches on an all-in-memory 4-shard local store, hot tier on: hotcache, shard fan-out and the index carry it; disk is idle, so a log or flush change must show no change",
		target: targetLocal, sessions: 2, dim: 16,
		records: 1_000_000 / scale, memory: 256 << 20 / scale, shards: 4, cache: 65536 / scale, bound: mlkv.ASP,
		batch: 256, zipf: 0.99, readShare: 1,
		streamOps: 4096, warmOps: 1024, noDisk: true, rungOps: 4000,
	},
	{
		name:   "kv_mixed_remote",
		why:    "single-key 50% Get / 25% Put / 25% RMW over loopback on a store ~20x the server's memory: per-frame cost and the write path show, so a batch-only trick or a read gain that costs writes is caught",
		target: targetLoopback, sessions: 2, dim: 16,
		records: 2_000_000 / scale, memory: (8 << 20) / scale, shards: 1, bound: mlkv.ASP,
		batch: 1, zipf: 0.99, readShare: 0.5, putShare: 0.25,
		streamOps: 1 << 20, warmOps: 20_000, rungOps: 30_000,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// scaled returns a copy of sp shrunk by a further factor, for the smoke
// test; div 1 is the benchmark itself.
func (sp *spec) scaled(div int) *spec {
	if div <= 1 {
		return sp
	}
	c := *sp
	c.records = max(sp.records/div, 4096)
	c.fieldCard = max(sp.fieldCard/uint64(div), 512)
	if sp.dlrm {
		c.records = sp.fields * int(c.fieldCard)
	}
	c.cache = sp.cache / div
	if sp.cache > 0 {
		c.cache = max(c.cache, 256)
	}
	c.streamOps = max(sp.streamOps/div, 256)
	c.warmOps = max(sp.warmOps/div, 64)
	c.warmSamples = max(sp.warmSamples/int64(div), 256)
	c.rungOps = max(sp.rungOps/div, 64)
	c.aucFloor = 0 // too few samples to learn anything
	return &c
}
