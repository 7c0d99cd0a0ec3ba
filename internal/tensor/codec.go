package tensor

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The storage layers all persist embeddings as little-endian IEEE-754
// float32 words, which on a little-endian host is a []float32's own memory.
// F32Bytes is that identity — the one place the repo says so (and its only
// use of unsafe; endian.go refuses to build where it would not hold) — so a
// caller's vector crosses the []byte kv and wire seams without a staging
// buffer or a per-word loop, and the byte order cannot drift between the
// in-process and on-the-wire representations.

// F32Bytes returns the storage encoding of v as a view of v's own memory:
// len(v)*4 bytes that alias it, so bytes read into the view land in v and
// bytes written from it are v. The view keeps v alive.
func F32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*4)
}

// BytesToF32s decodes len(dst) float32 words from src into dst, for a
// caller whose bytes live in memory it does not own (a log page, a frame).
// src must hold at least 4*len(dst) bytes.
func BytesToF32s(src []byte, dst []float32) {
	copy(F32Bytes(dst), src[:len(dst)*4])
}

// F32sToBytes encodes src into dst, which must hold at least 4*len(src)
// bytes.
func F32sToBytes(src []float32, dst []byte) {
	copy(dst[:len(src)*4], F32Bytes(src))
}

// StepBytes applies val ← val − lr·grad to an encoded embedding in place:
// the gradient step of core.Session.RMW and of the server's APPLY frame,
// one definition so a local and a remote update round identically.
// val must hold at least 4*len(grad) bytes. It goes word by word through
// encoding/binary: val sits wherever the engine keeps the record, which
// need not be float32-aligned.
func StepBytes(val []byte, grad []float32, lr float32) {
	for i, g := range grad {
		v := math.Float32frombits(binary.LittleEndian.Uint32(val[i*4:]))
		v -= lr * g
		binary.LittleEndian.PutUint32(val[i*4:], math.Float32bits(v))
	}
}
