package ckks

// Key and element size accounting. The paper stores the keyswitch keys
// off-chip because of their "large data volume" (§VI-A); these helpers make
// that volume concrete for reports and the MLaaS setup cost.

// SerializedSize returns the wire size of the public key.
func (pk *PublicKey) SerializedSize() int {
	return 1 + pk.B.SerializedSize() + pk.A.SerializedSize()
}

// SerializedSize returns the wire size of a switching key: one RLWE pair
// per digit over the extended basis.
func (swk *SwitchingKey) SerializedSize() int {
	n := 3
	for i := range swk.B {
		n += swk.B[i].SerializedSize() + swk.A[i].SerializedSize()
	}
	return n
}

// SerializedSize sums the Galois keys.
func (rk *RotationKeys) SerializedSize() int {
	n := 0
	for _, swk := range rk.Keys {
		n += swk.SerializedSize()
	}
	return n
}

// SwitchingKeyBytes returns the serialized size of a switching key at
// level l — a generated key at l = L, or a level view (AtLevel): l digits,
// each two polys of l+1 rows (q_0..q_{l-1} and the special prime). The
// resident size is the same up to the headers.
func SwitchingKeyBytes(params Parameters, l int) int64 {
	perPoly := int64(8 + 8*(l+1)*params.N())
	return 3 + 2*perPoly*int64(l)
}
