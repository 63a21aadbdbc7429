package ckks

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestMNISTParamsSmoke is a smoke test at the paper's real MNIST parameters:
// one PCmult+Rescale and one Rotate at N=8192, L=7 must be correct. It also
// logs wall-clock costs, which bound the functional HE-CNN runtime.
func TestMNISTParamsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size parameters")
	}
	start := time.Now()
	params := ParamsMNIST()
	kg := NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rtk := kg.GenRotationKeys(sk, []int{1})
	t.Logf("setup: %v", time.Since(start))

	enc := NewEncoder(params)
	encr := NewEncryptor(params, pk, 2)
	decr := NewDecryptor(params, sk)
	eval := NewEvaluator(params, nil, rtk)

	rng := rand.New(rand.NewSource(3))
	v := randVec(params.Slots(), 1, rng)
	w := randVec(params.Slots(), 1, rng)
	ct := encr.Encrypt(enc.Encode(v, params.L, params.Scale))

	start = time.Now()
	prod := eval.RescaleNew(eval.MulPlainNew(ct, enc.Encode(w, params.L, params.Scale)))
	t.Logf("PCmult+Rescale: %v", time.Since(start))

	start = time.Now()
	rot := eval.RotateNew(prod, 1)
	t.Logf("Rotate: %v", time.Since(start))

	got := enc.Decode(decr.Decrypt(rot))
	slots := params.Slots()
	for i := 0; i < 100; i++ {
		want := v[(i+1)%slots] * w[(i+1)%slots]
		if math.Abs(got[i]-want) > 1e-3 {
			t.Fatalf("slot %d: got %g want %g", i, got[i], want)
		}
	}
}
