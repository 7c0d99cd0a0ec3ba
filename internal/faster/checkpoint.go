package faster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/llm-db/mlkv-go/internal/util"
)

// Checkpointing: the paper's deployments periodically checkpoint the local
// NVMe-resident log to durable storage (§II-B, "Heterogeneous Storage").
// Here a checkpoint is (1) flushing every allocated page to the log file and
// (2) atomically writing a metadata file recording the durable tail, from
// which the index is rebuilt by a forward scan on recovery.

const (
	metaMagic   = uint64(0x4d4c4b56464b5631) // "MLKVFKV1"
	metaFile    = "CHECKPOINT"
	metaTmpFile = "CHECKPOINT.tmp"
	metaSize    = 8 + 8 + 8 + 4 // magic | tailAddr | valueSize | crc
)

// Checkpoint makes the current store contents durable. The caller must
// guarantee no operations are in flight (e.g., at an epoch barrier between
// training batches).
func (st *Store) Checkpoint() error {
	st.em.Drain()
	if err := st.log.flushAll(); err != nil {
		return err
	}
	buf := make([]byte, metaSize)
	binary.LittleEndian.PutUint64(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], st.log.nextAddr.Load())
	binary.LittleEndian.PutUint64(buf[16:], uint64(st.cfg.ValueSize))
	crc := crc32.ChecksumIEEE(buf[:24])
	binary.LittleEndian.PutUint32(buf[24:], crc)
	if err := writeDurable(st.cfg.Dir, metaTmpFile, metaFile, buf); err != nil {
		return fmt.Errorf("faster: write checkpoint: %w", err)
	}
	return nil
}

// writeDurable replaces dir/name with data so that, once it returns nil, a
// power loss leaves either the old file or the new one: data is written to
// dir/tmp and fsynced, renamed over name, and the directory is fsynced so
// the rename itself is on disk.
func writeDurable(dir, tmp, name string, data []byte) error {
	tmpPath := filepath.Join(dir, tmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// ErrCorruptCheckpoint indicates a damaged or torn checkpoint file.
var ErrCorruptCheckpoint = errors.New("faster: corrupt checkpoint metadata")

// maybeRecover rebuilds the index from the log if a checkpoint exists.
func (st *Store) maybeRecover() error {
	buf, err := os.ReadFile(filepath.Join(st.cfg.Dir, metaFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(buf) != metaSize {
		return ErrCorruptCheckpoint
	}
	if binary.LittleEndian.Uint64(buf) != metaMagic {
		return ErrCorruptCheckpoint
	}
	if crc32.ChecksumIEEE(buf[:24]) != binary.LittleEndian.Uint32(buf[24:]) {
		return ErrCorruptCheckpoint
	}
	tail := binary.LittleEndian.Uint64(buf[8:])
	vs := binary.LittleEndian.Uint64(buf[16:])
	if int(vs) != st.cfg.ValueSize {
		return fmt.Errorf("faster: checkpoint ValueSize %d != configured %d", vs, st.cfg.ValueSize)
	}
	return st.recover(tail)
}

// recover scans records [1, tail) in address order and re-establishes the
// index so that each hash chain's head is its newest record, exactly as it
// was at checkpoint time. The in-memory log restarts on a fresh page past
// the durable region: recovered records are all disk-resident and will be
// copied forward on first touch.
func (st *Store) recover(tail uint64) error {
	// The log must hold every record below the tail before any of it is
	// mapped: a read past the end of the file would fault.
	var need int64
	if tail > firstAddr {
		need = int64(tail) * int64(st.log.recSize)
	}
	fi, err := st.log.file.Stat()
	if err != nil {
		return fmt.Errorf("faster: recovery: %w", err)
	}
	if fi.Size() < need {
		return fmt.Errorf("faster: recovery: log file is %d bytes, but the checkpoint's tail %d needs %d", fi.Size(), tail, need)
	}
	if err := st.log.view.cover(need); err != nil {
		return err
	}
	st.log.view.advise(adviseSequential)
	defer st.log.view.advise(adviseRandom)
	rec := make([]byte, st.log.recSize)
	for addr := uint64(firstAddr); addr < tail; addr++ {
		if err := st.log.readRecord(addr, rec); err != nil {
			return fmt.Errorf("faster: recovery: %w", err)
		}
		key := binary.LittleEndian.Uint64(rec[8:])
		hdr := binary.LittleEndian.Uint64(rec)
		if hdr == 0 && key == 0 && binary.LittleEndian.Uint64(rec[16:]) == 0 && allZero(rec[24:]) {
			// Unallocated slot: the gap between a previous checkpoint's tail
			// and the page boundary allocation resumed at. A genuine first
			// record of key 0 also has hdr 0 and no predecessor, so only an
			// entirely zero record (value included) is treated as a gap —
			// the one casualty is an all-zero embedding for key 0, which
			// recovers as absent-and-reinitialized-to-zeros.
			continue
		}
		hash := hashOfKey(key)
		entry := st.ix.findOrCreate(hash)
		// Later records supersede earlier ones; a plain store is correct
		// because recovery is single-threaded.
		entry.Store(packEntry(tagOf(hash), addr))
	}
	// Resume allocation on the page after the durable tail, leaving all
	// recovered data in the disk region. The first allocator lands on slot 0
	// of that page and materializes it through the normal openPage path.
	lastPage := st.log.pageOf(tail - 1)
	start := uint64(lastPage+1) << st.log.pageShift
	st.log.nextAddr.Store(start)
	st.log.headAddr.Store(start)
	st.log.roAddr.Store(start)
	st.log.safeRoAddr.Store(start)
	st.log.flushMu.Lock()
	st.log.flushedPage = lastPage
	st.log.flushMu.Unlock()
	st.log.enqMu.Lock()
	st.log.frozenEnq = lastPage
	st.log.enqMu.Unlock()
	// Frame 0 was eagerly bound to page 0 at construction; after recovery
	// page 0 lives on disk, so unbind the frame.
	st.log.frames[0].holds.Store(-1)
	return nil
}

func hashOfKey(key uint64) uint64 {
	// Mirrors the hashing used by Session.findKey.
	return util.HashKey(key)
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
