package ring

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkCanonical asserts every residue of p is fully reduced (< its q_i) —
// the invariant the serialization format relies on. The NTT butterflies and
// keyswitch MACs work on lazy values in [0, 2q) or [0, 4q) internally, so
// this pins down that no lazy value ever escapes a public operation.
func checkCanonical(t *testing.T, r *Ring, p *Poly, op string) {
	t.Helper()
	for i, row := range p.Coeffs {
		q := r.Moduli[i]
		for j, c := range row {
			if c >= q {
				t.Fatalf("%s: coeff[%d][%d]=%d not reduced below q=%d", op, i, j, c, q)
			}
		}
	}
}

func randPoly(r *Ring, k int, rng *rand.Rand) *Poly {
	p := r.NewPoly(k)
	for i := range p.Coeffs {
		q := r.Moduli[i]
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % q
		}
	}
	return p
}

// TestLazyOutputsFullyReducedBeforeSerialization drives the lazy-pipeline
// operations (NTT, INTT, MACs, rescale, Montgomery round-trip) and checks
// that every observable result is canonical and serializes losslessly — the
// ring-level half of the lazy-reduction bounds contract (DESIGN.md §16).
func TestLazyOutputsFullyReducedBeforeSerialization(t *testing.T) {
	r := testRing(t, 256, 4)
	rng := rand.New(rand.NewSource(99))
	a := randPoly(r, 4, rng)
	b := randPoly(r, 4, rng)

	// Forward NTT ends with the 4q -> q collapse.
	r.NTT(a)
	checkCanonical(t, r, a, "NTT")
	r.NTT(b)

	// MAC on NTT-domain rows stays canonical.
	acc := r.NewPoly(4)
	r.MulCoeffsAdd(acc, a, b)
	r.MulCoeffsAdd(acc, b, a)
	checkCanonical(t, r, acc, "MulCoeffsAdd")

	// Inverse NTT ends with the Shoup 1/N full reduction.
	r.INTT(acc)
	checkCanonical(t, r, acc, "INTT")

	// Rescale's centered division must also emit canonical residues.
	r.DivRoundByLastModulus(acc)
	checkCanonical(t, r, acc, "DivRoundByLastModulus")

	// Montgomery round trip: MForm keeps residues canonical in the
	// Montgomery domain too (they are ordinary residues of q).
	mont := r.NewPoly(3)
	r.MForm(mont, acc)
	checkCanonical(t, r, mont, "MForm")

	// Serialization must round-trip the canonical values bit-exactly.
	var buf bytes.Buffer
	if _, err := acc.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadPoly(&buf, acc.K(), r.N, new([]byte))
	if err != nil {
		t.Fatalf("ReadPoly: %v", err)
	}
	if !r.Equal(acc, got) {
		t.Fatal("serialization round trip changed residues")
	}
}

// TestMFormMatchesScalar pins the poly-level Montgomery conversion to the
// scalar MForm on every residue.
func TestMFormMatchesScalar(t *testing.T) {
	r := testRing(t, 64, 3)
	rng := rand.New(rand.NewSource(5))
	a := randPoly(r, 3, rng)
	out := r.NewPoly(3)
	r.MForm(out, a)
	for i := range a.Coeffs {
		m := r.Mods[i]
		for j := range a.Coeffs[i] {
			if want := m.MForm(a.Coeffs[i][j]); out.Coeffs[i][j] != want {
				t.Fatalf("MForm[%d][%d]=%d want %d", i, j, out.Coeffs[i][j], want)
			}
		}
	}
	// In-place conversion is allowed.
	r.MForm(a, a)
	if !r.Equal(a, out) {
		t.Fatal("in-place MForm differs from out-of-place")
	}
}
