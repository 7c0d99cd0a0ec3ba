package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/llm-db/mlkv-go/internal/util"
)

// Cluster-map persistence: each node saves its current map (and its own
// identity) under its data directory, so a full-cluster restart recovers
// topology from disk instead of requiring the original -cluster flags.
// The file is tiny and rewritten whole on every epoch change:
//
//	[8]  magic "MLKVMAP1"
//	[4]  CRC32-IEEE over everything after this field
//	[2]  self-id length (LE)  [n] self-id bytes
//	[..] EncodeMap payload (the wire codec — one format, one fuzzer)
//
// Writes go through util.WriteDurable (temp file, fsync, rename, directory
// fsync), so a crash mid-write leaves either the old map or the new one,
// never a torn file; the CRC catches torn or bit-rotted content anyway and
// the loader refuses it with a clear error rather than booting from
// garbage. A persisted map is a
// *hint*, not truth: the boot path syncs with live peers afterward, so a
// stale epoch on disk is superseded by the first CLUSTERSYNC exchange.

// mapFileName is the persisted map's name under the node's data dir.
const mapFileName = "cluster-map"

// mapMagic identifies (and versions) the persisted-map format.
var mapMagic = [8]byte{'M', 'L', 'K', 'V', 'M', 'A', 'P', '1'}

// ErrNoSavedMap reports that the data dir holds no persisted cluster map
// (a fresh node, or a pre-failover data dir) — distinct from a corrupt
// one, which is an error the operator should see.
var ErrNoSavedMap = errors.New("cluster: no saved map")

// SaveMap atomically persists m and this node's identity under dir.
func SaveMap(dir, self string, m *Map) error {
	if len(self) == 0 || len(self) > MaxNodeID {
		return fmt.Errorf("cluster: save map: bad self id %q", self)
	}
	enc := EncodeMap(m)
	buf := make([]byte, 0, len(mapMagic)+4+2+len(self)+len(enc))
	buf = append(buf, mapMagic[:]...)
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(self)))
	buf = append(buf, self...)
	buf = append(buf, enc...)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf[12:]))

	if err := util.WriteDurable(filepath.Join(dir, mapFileName), buf); err != nil {
		return fmt.Errorf("cluster: save map: %w", err)
	}
	return nil
}

// LoadMap reads the map persisted under dir, returning the saved node
// identity and the validated map. A missing file returns ErrNoSavedMap; a
// torn, truncated, or corrupt file returns a descriptive error — the
// caller should surface it, not silently boot unclustered.
func LoadMap(dir string) (self string, m *Map, err error) {
	buf, err := os.ReadFile(filepath.Join(dir, mapFileName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return "", nil, ErrNoSavedMap
		}
		return "", nil, fmt.Errorf("cluster: load map: %w", err)
	}
	if len(buf) < len(mapMagic)+4+2 {
		return "", nil, fmt.Errorf("cluster: load map: file truncated (%d bytes)", len(buf))
	}
	if [8]byte(buf[:8]) != mapMagic {
		return "", nil, fmt.Errorf("cluster: load map: bad magic %q", buf[:8])
	}
	if got, want := crc32.ChecksumIEEE(buf[12:]), binary.LittleEndian.Uint32(buf[8:]); got != want {
		return "", nil, fmt.Errorf("cluster: load map: checksum mismatch (file %#x, computed %#x)", want, got)
	}
	rest := buf[12:]
	idLen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if idLen == 0 || idLen > MaxNodeID || idLen > len(rest) {
		return "", nil, fmt.Errorf("cluster: load map: bad self-id length %d", idLen)
	}
	self = string(rest[:idLen])
	m, err = DecodeMap(rest[idLen:])
	if err != nil {
		return "", nil, fmt.Errorf("cluster: load map: %w", err)
	}
	if m.Node(self) == nil {
		return "", nil, fmt.Errorf("cluster: load map: saved map has no node %q", self)
	}
	return self, m, nil
}
