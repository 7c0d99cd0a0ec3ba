//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package tensor

// F32Bytes hands a []float32's memory to the storage and wire layers as the
// little-endian encoding every log, checkpoint and frame uses. On a
// big-endian target that view would silently write byte-swapped embeddings,
// so the package refuses to build there instead of keeping a second,
// staged codec beside the view.
const _ = mlkv_go_requires_a_little_endian_target
