package tensor

import (
	"math"
	"testing"
)

func TestF32CodecRoundTrip(t *testing.T) {
	src := []float32{0, 1, -1, 0.5, -0.25, math.MaxFloat32, math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), 3.14159, -2.71828}
	buf := make([]byte, 4*len(src))
	F32sToBytes(src, buf)
	got := make([]float32, len(src))
	BytesToF32s(buf, got)
	for i := range src {
		if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
			t.Fatalf("index %d: %x -> %x", i, math.Float32bits(src[i]), math.Float32bits(got[i]))
		}
	}
}

func TestF32CodecNaN(t *testing.T) {
	src := []float32{float32(math.NaN())}
	buf := make([]byte, 4)
	F32sToBytes(src, buf)
	got := make([]float32, 1)
	BytesToF32s(buf, got)
	if !math.IsNaN(float64(got[0])) {
		t.Fatalf("NaN round-tripped to %v", got[0])
	}
}

func TestF32CodecLittleEndian(t *testing.T) {
	buf := make([]byte, 4)
	F32sToBytes([]float32{1.0}, buf) // 0x3f800000
	want := [4]byte{0x00, 0x00, 0x80, 0x3f}
	if [4]byte(buf) != want {
		t.Fatalf("encoding of 1.0 = % x, want % x", buf, want[:])
	}
}

// TestF32BytesAliases pins the view: it is the vector's own memory in the
// storage byte order, both ways, and an empty vector has an empty view.
func TestF32BytesAliases(t *testing.T) {
	v := []float32{1.0, 0}
	b := F32Bytes(v)
	if len(b) != 8 || [4]byte(b[:4]) != [4]byte{0x00, 0x00, 0x80, 0x3f} {
		t.Fatalf("view of 1.0 = % x", b)
	}
	copy(b[4:], []byte{0x00, 0x00, 0x00, 0xc0}) // -2.0, written through the view
	v[0] = 0.5                                  // read back through it
	if v[1] != -2 || [4]byte(b[:4]) != [4]byte{0x00, 0x00, 0x00, 0x3f} {
		t.Fatalf("view does not alias: v=%v b=% x", v, b)
	}
	if n := len(F32Bytes(nil)); n != 0 {
		t.Fatalf("view of nil has %d bytes", n)
	}
}

func BenchmarkF32sToBytes(b *testing.B) {
	src := make([]float32, 64) // a typical embedding vector
	for i := range src {
		src[i] = float32(i) * 0.125
	}
	dst := make([]byte, 4*len(src))
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		F32sToBytes(src, dst)
	}
}

func BenchmarkBytesToF32s(b *testing.B) {
	src := make([]byte, 4*64)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]float32, 64)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		BytesToF32s(src, dst)
	}
}
