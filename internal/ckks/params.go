// Package ckks implements the RNS-CKKS approximate homomorphic encryption
// scheme (Cheon-Kim-Kim-Song with the full-RNS variant of Cheon-Han-Kim-
// Kim-Song) that FxHENN's HE operation modules compute: PCadd, PCmult,
// CCadd, CCmult, Rescale, Relinearize and Rotate (§II-A of the paper).
// KeySwitch follows the RNS digit decomposition over the extended basis
// (q_0..q_{L-1}, p): Σ_i [c]_{q_i} ⊗ (B_i, A_i) followed by division by the
// special prime p — the paper's OP5, its dominant pipeline stage.
//
// The implementation is software-only and deterministic; it is the
// functional ground truth against which the simulated FPGA accelerator's
// schedules are validated.
//
// Parallelism contract: an Evaluator is safe for concurrent use from
// multiple goroutines, except one scoped to one evaluation's rows
// (WithRows; see below). When a parallel.Pool is
// attached to the parameters' ring (Parameters.AttachPool), key-switching
// fans its k+1 extended-basis target rows out as independent work items,
// hoisted decompositions expand their digits concurrently, MulPlainSum
// runs its rows concurrently, and the ring's transforms inherit limb
// parallelism — each by the ring's one fan-out rule (ring.Ring.RowPool),
// and all bit-exact with serial execution, which
// TestParallelMatchesSerialDigests pins. Encoder and
// Decryptor are likewise safe for concurrent use on distinct outputs. An
// Encryptor is not — its sampler and its row list are its own — and
// neither is an Evaluator scoped to one evaluation's rows (WithRows).
package ckks

import (
	"fmt"
	"math"

	"fxhenn/internal/parallel"
	"fxhenn/internal/primes"
	"fxhenn/internal/ring"
)

// Parameters fixes a CKKS instantiation: ring degree, RNS modulus chain and
// default encoding scale. The special (keyswitching) modulus is carried as
// the last prime of the underlying ring and never appears in ciphertexts.
type Parameters struct {
	LogN  int     // log2 of the ring degree
	L     int     // number of ciphertext moduli q_i (the maximum level)
	QBits int     // bit size of each q_i
	PBits int     // bit size of the special modulus
	Scale float64 // default encoding scale Δ

	Moduli  []uint64 // q_0 .. q_{L-1}
	Special uint64   // keyswitching modulus p

	ring *ring.Ring // basis q_0..q_{L-1}, p (p last)
}

// NewParameters generates an instantiation with L primes of qBits bits plus
// one special prime of pBits bits, all NTT-friendly for degree 2^logN.
// The default scale is 2^qBits, the paper's choice of matching scale and
// modulus word size.
func NewParameters(logN, qBits, l, pBits int) Parameters {
	if l < 2 {
		panic("ckks: need at least 2 ciphertext moduli")
	}
	if pBits <= qBits {
		panic("ckks: special modulus must be larger than the q_i for keyswitching noise control")
	}
	qs := primes.GenerateNTTPrimes(qBits, logN, l)
	p := primes.GenerateNTTPrimes(pBits, logN, 1)[0]
	all := append(append([]uint64(nil), qs...), p)
	return Parameters{
		LogN:    logN,
		L:       l,
		QBits:   qBits,
		PBits:   pBits,
		Scale:   math.Exp2(float64(qBits)),
		Moduli:  qs,
		Special: p,
		ring:    ring.NewRing(1<<uint(logN), all),
	}
}

// ParamsMNIST returns the FxHENN-MNIST parameter set of §VII-A: N = 8192,
// seven 30-bit primes (Q ≈ 210 bits), supporting multiplication depth 5 at
// a 128-bit security level.
func ParamsMNIST() Parameters { return NewParameters(13, 30, 7, 45) }

// ParamsCIFAR10 returns the FxHENN-CIFAR10 parameter set: N = 16384, seven
// 36-bit primes (Q ≈ 252 bits), 192-bit security.
func ParamsCIFAR10() Parameters { return NewParameters(14, 36, 7, 50) }

// N returns the ring degree.
func (p Parameters) N() int { return 1 << uint(p.LogN) }

// Slots returns the number of complex (equivalently real-vector) slots, N/2.
func (p Parameters) Slots() int { return p.N() / 2 }

// MaxLevel returns the highest usable ciphertext level (L, counting the
// number of active primes; a fresh ciphertext has MaxLevel primes).
func (p Parameters) MaxLevel() int { return p.L }

// Ring exposes the underlying RNS ring (q-basis plus the special prime as
// its last modulus).
func (p Parameters) Ring() *ring.Ring { return p.ring }

// AttachPool attaches a worker pool to the parameters' ring, enabling
// limb-, digit- and row-parallel evaluation for every evaluator, encoder
// and encryptor built from these Parameters. nil detaches (serial mode).
// Safe to call concurrently with evaluation.
func (p Parameters) AttachPool(pool *parallel.Pool) { p.ring.AttachPool(pool) }

// LogQ returns log2 of the full ciphertext modulus, for reporting (the "Q"
// column of Table VII).
func (p Parameters) LogQ() int { return p.QBits * p.L }

// PlaintextBytes returns the size of an encoded plaintext at level k.
func (p Parameters) PlaintextBytes(level int) int {
	return level * p.N() * 8
}

func (p Parameters) String() string {
	return fmt.Sprintf("CKKS{N=%d, L=%d, q=%d bits, p=%d bits, logQ=%d}",
		p.N(), p.L, p.QBits, p.PBits, p.LogQ())
}
