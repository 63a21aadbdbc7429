package fxhenn

import (
	"runtime"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/modarith"
	"fxhenn/internal/ring"
)

// The BenchmarkKernel_* rows are the CI kernel regression gate and the
// only benchmarks of this package; end-to-end timing comes from bench/
// (bash bench/run.sh) and the paper tables from cmd/artifact. The rows
// pin the modular-arithmetic hot paths at the paper ring geometry
// (N=8192, 30-bit NTT primes): the Harvey-lazy NTT butterflies,
// Montgomery vs Barrett coefficient multiplication, the lazy-MAC
// keyswitch inner row, and the NTT-domain automorphism. Each op performs
// kernelReps passes over one limb so even a -benchtime=1x run measures a
// stable chunk of work; ci.yml compares these rows against the committed
// BENCH_kernels.json through cmd/benchjson and fails on a regression of
// more than 25%, so a butterfly or reduction regression fails the build
// before it shows up as seconds of end-to-end latency.

// kernelReps is the inner repetition count of every Kernel_ benchmark:
// ns/op is kernelReps passes, identically in the committed baseline and
// in CI, so the ratio is unaffected.
const kernelReps = 16

// kernelOperands returns the paper-geometry ring, its first prime, and
// two deterministic canonical coefficient vectors. It forces a
// collection first so garbage left by earlier work in the process is not
// collected inside the kernel timing windows.
func kernelOperands() (*ring.Ring, modarith.Modulus, []uint64, []uint64) {
	runtime.GC()
	r := ckks.ParamsMNIST().Ring()
	m := r.Mods[0]
	a := make([]uint64, r.N)
	c := make([]uint64, r.N)
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := range a {
		a[i] = next() % m.Q
		c[i] = next() % m.Q
	}
	return r, m, a, c
}

// BenchmarkKernel_NTTForward measures the forward negacyclic NTT of one
// N=8192 limb (Cooley-Tukey, Harvey-lazy butterflies, final reduction
// pass).
func BenchmarkKernel_NTTForward(b *testing.B) {
	r, _, a, _ := kernelOperands()
	t := r.Tables[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			t.Forward(a)
		}
	}
}

// BenchmarkKernel_NTTInverse measures the inverse NTT of one N=8192 limb
// (Gentleman-Sande, lazy butterflies, n⁻¹ fold).
func BenchmarkKernel_NTTInverse(b *testing.B) {
	r, _, a, _ := kernelOperands()
	t := r.Tables[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			t.Inverse(a)
		}
	}
}

// BenchmarkKernel_MulModBarrett measures the Barrett coefficient product
// kernel (MulVec) — the cold-path reference the Montgomery row is
// compared against in PERFORMANCE.md.
func BenchmarkKernel_MulModBarrett(b *testing.B) {
	_, m, a, c := kernelOperands()
	out := make([]uint64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			m.MulVec(out, a, c)
		}
	}
}

// BenchmarkKernel_MulModMontgomery measures the Montgomery coefficient
// product kernel (MulMontVec) with the second operand pre-converted, the
// form every keyswitch MAC consumes.
func BenchmarkKernel_MulModMontgomery(b *testing.B) {
	_, m, a, c := kernelOperands()
	cMont := make([]uint64, len(c))
	m.MFormVec(cMont, c)
	out := make([]uint64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			m.MulMontVec(out, a, cMont)
		}
	}
}

// BenchmarkKernel_KeySwitchRow measures one target row of the RNS
// keyswitch inner loop exactly as the ckks keyswitch kernel runs it for
// every row, the special prime's included: per digit two lazy Montgomery
// MACs into unreduced accumulators, then one closing ReduceVec per
// accumulator.
func BenchmarkKernel_KeySwitchRow(b *testing.B) {
	_, m, a, c := kernelOperands()
	const digits = 7
	keyB := make([][]uint64, digits)
	keyA := make([][]uint64, digits)
	for d := range keyB {
		keyB[d] = make([]uint64, len(c))
		keyA[d] = make([]uint64, len(c))
		m.MFormVec(keyB[d], c)
		m.MFormVec(keyA[d], a)
	}
	acc0 := make([]uint64, len(a))
	acc1 := make([]uint64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			for k := range acc0 {
				acc0[k] = 0
				acc1[k] = 0
			}
			for d := 0; d < digits; d++ {
				m.MulMontAddLazyVec(acc0, a, keyB[d])
				m.MulMontAddLazyVec(acc1, a, keyA[d])
			}
			m.ReduceVec(acc0, acc0)
			m.ReduceVec(acc1, acc1)
		}
	}
}

// BenchmarkKernel_Automorphism measures the NTT-domain Galois
// permutation of one limb (the per-rotation work a hoisted rotation
// pays after the shared decomposition).
func BenchmarkKernel_Automorphism(b *testing.B) {
	r, _, a, _ := kernelOperands()
	perm := r.NTTAutomorphismIndex(ckks.ParamsMNIST().GaloisElementForRotation(1))
	out := make([]uint64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < kernelReps; j++ {
			ring.PermuteVec(out, a, perm)
		}
	}
}
