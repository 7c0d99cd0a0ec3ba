package tensor

import (
	"encoding/binary"
	"math"
)

// The storage layers all persist embeddings as little-endian IEEE-754
// float32 words. These two helpers are the one codec every layer shares
// (core tables, the train KV/remote backends, benchmarks); keeping a
// single definition stops the byte order from drifting between the
// in-process and on-the-wire representations.

// BytesToF32s decodes len(dst) little-endian float32 words from src into
// dst. src must hold at least 4*len(dst) bytes.
func BytesToF32s(src []byte, dst []float32) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// F32sToBytes encodes src as little-endian float32 words into dst, which
// must hold at least 4*len(src) bytes.
func F32sToBytes(src []float32, dst []byte) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(v))
	}
}

// StepBytes applies val ← val − lr·grad to an encoded embedding in place:
// the gradient step of core.Session.ApplyGradient and of the server's APPLY
// frame, one definition so a local and a remote update round identically.
// val must hold at least 4*len(grad) bytes.
func StepBytes(val []byte, grad []float32, lr float32) {
	for i, g := range grad {
		v := math.Float32frombits(binary.LittleEndian.Uint32(val[i*4:]))
		v -= lr * g
		binary.LittleEndian.PutUint32(val[i*4:], math.Float32bits(v))
	}
}
