package util

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// ShardsMetaFile is the file recording the shard count a partitioned store
// directory was created with. Every layer that opens a shard set (core's
// table, kv's sharded FASTER adapter) validates it, because reopening with
// a different count would silently route keys to the wrong shard.
const ShardsMetaFile = "SHARDS"

// ValidateShardMeta checks dir against the requested shard count. A
// missing metadata file passes, except when sharding is requested for a
// directory that already holds an unsharded log (whose keys would become
// unreachable). It never writes: callers persist the count with
// WriteShardMeta only after the shard stores open successfully, so a
// failed open does not pin the directory to a count that holds no data.
func ValidateShardMeta(dir string, shards int) error {
	metaPath := filepath.Join(dir, ShardsMetaFile)
	if raw, err := os.ReadFile(metaPath); err == nil {
		prev, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("corrupt shard metadata in %s: %q", metaPath, raw)
		}
		if prev != shards {
			return fmt.Errorf("table at %s was created with %d shards, reopened with %d", dir, prev, shards)
		}
		return nil
	}
	if shards > 1 {
		if _, err := os.Stat(filepath.Join(dir, "hlog.dat")); err == nil {
			return fmt.Errorf("table at %s holds unsharded data; cannot reopen with %d shards", dir, shards)
		}
	}
	return nil
}

// WriteShardMeta records the shard count for future ValidateShardMeta
// calls.
func WriteShardMeta(dir string, shards int) error {
	return WriteDurable(filepath.Join(dir, ShardsMetaFile), []byte(strconv.Itoa(shards)+"\n"))
}
