package main

import (
	"math"
	"slices"
)

// The generator is the benchmark's own (no repo package) so that the
// inputs a seed produces cannot move when the repo is refactored.

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(x uint64) uint64 {
	r := rng{s: x}
	return r.next()
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta (Gray et
// al.'s method, as YCSB uses it).
type zipf struct {
	n                  float64
	theta, alpha, zeta float64
	eta, half          float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, zeta: zeta(n)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zeta)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) draw(r *rng) uint64 {
	u := r.float()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	return uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Op kinds of a stream.
const (
	opGet uint8 = iota
	opPut
	opRMW
	opGetBatch
	opPutBatch
	opLookahead
	opStep // a trainer step: only ever a span, never an op of a stream
)

var opNames = [...]string{"get", "put", "rmw", "get_batch", "put_batch", "lookahead", "step"}

// isRead classes an op for the read/write latency split.
func isRead(kind uint8) bool { return kind == opGet || kind == opGetBatch }

// stream is one session's pre-generated op sequence. Single-key ops use
// key, batch ops use batch; the other slice is nil.
type stream struct {
	kind  []uint8
	key   []uint64
	batch [][]uint64
}

func (s *stream) len() int { return len(s.kind) }

// keysOf returns how many keys op i touches.
func (s *stream) keysOf(i int) int {
	if s.batch != nil {
		return len(s.batch[i])
	}
	return 1
}

// prefix returns the first n ops as a stream sharing storage.
func (s *stream) prefix(n int) *stream {
	n = min(n, s.len())
	p := &stream{kind: s.kind[:n]}
	if s.key != nil {
		p.key = s.key[:n]
	}
	if s.batch != nil {
		p.batch = s.batch[:n]
	}
	return p
}

// genKVStream builds one session's stream for a kv_* workload: ranks are
// Zipf-distributed and scattered over the key space by a fixed hash, so
// hot keys are not neighbours in any index or log page.
func genKVStream(sp *spec, seed uint64, session int) *stream {
	r := &rng{s: mix64(seed) ^ mix64(uint64(session)+1)}
	z := newZipf(sp.records, sp.zipf)
	key := func() uint64 { return mix64(z.draw(r)) % uint64(sp.records) }
	st := &stream{kind: make([]uint8, sp.streamOps)}
	if sp.batch > 1 {
		// Unique ascending keys per call: what a trainer's gather sends,
		// and what blocking staleness bounds require of a batch.
		st.batch = make([][]uint64, sp.streamOps)
		flat := make([]uint64, sp.streamOps*sp.batch)
		seen := make(map[uint64]struct{}, sp.batch)
		for i := range st.batch {
			b := flat[i*sp.batch : (i+1)*sp.batch : (i+1)*sp.batch]
			clear(seen)
			for j := 0; j < sp.batch; {
				k := key()
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				b[j] = k
				j++
			}
			slices.Sort(b)
			st.batch[i] = b
			st.kind[i] = opGetBatch
		}
		return st
	}
	st.key = make([]uint64, sp.streamOps)
	for i := range st.key {
		st.key[i] = key()
		switch u := r.float(); {
		case u < sp.readShare:
			st.kind[i] = opGet
		case u < sp.readShare+sp.putShare:
			st.kind[i] = opPut
		default:
			st.kind[i] = opRMW
		}
	}
	return st
}

// Values are f(key, version), so a read can tell whether the payload it
// got belongs to the key it asked for, whatever version it sees:
//
//	v[0]    = low 24 bits of the key (exact in a float32)
//	v[1]    = low 20 bits of the version
//	v[i>=2] = base(key, version, i) − (RMWs applied since that Put)
//
// An RMW carries gradient 0 in slots 0–1 and 1 elsewhere with lr 1, so
// it subtracts exactly one from every payload slot; all magnitudes stay
// far below 2^24 and the arithmetic is exact.
func valueBase(key, version uint64, i int) float32 {
	return float32((key*31 + version*7 + uint64(i)*13) & 1023)
}

func fillValue(dst []float32, key, version uint64) {
	version &= 0xfffff
	dst[0] = float32(key & 0xffffff)
	dst[1] = float32(version)
	for i := 2; i < len(dst); i++ {
		dst[i] = valueBase(key, version, i)
	}
}

func valueBelongs(v []float32, key uint64) bool {
	if v[0] != float32(key&0xffffff) || v[1] < 0 || v[1] > 0xfffff {
		return false
	}
	version := uint64(v[1])
	n := valueBase(key, version, 2) - v[2]
	if n < 0 || n != float32(math.Trunc(float64(n))) {
		return false
	}
	for i := 3; i < len(v); i++ {
		if valueBase(key, version, i)-v[i] != n {
			return false
		}
	}
	return true
}

func rmwGrad(dim int) []float32 {
	g := make([]float32, dim)
	for i := 2; i < dim; i++ {
		g[i] = 1
	}
	return g
}
