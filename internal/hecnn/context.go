package hecnn

import (
	"fxhenn/internal/ckks"
)

// Context bundles the CKKS machinery needed to run an HE-CNN functionally:
// parameters, keys, encoder, encryptor, decryptor and evaluator. It plays
// both the client role (pack/encrypt, decrypt) and the server role
// (evaluate), which is fine for a reproduction — the trust split is a
// protocol property, not a performance one.
type Context struct {
	Params    ckks.Parameters
	Encoder   *ckks.Encoder
	Encryptor *ckks.Encryptor
	Decryptor *ckks.Decryptor
	Eval      *ckks.Evaluator
}

// NewContext generates all key material, including Galois keys for the given
// rotation amounts (obtain them from Network.RotationsNeeded).
func NewContext(params ckks.Parameters, seed int64, rotations []int) *Context {
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var rtk *ckks.RotationKeys
	if len(rotations) > 0 {
		rtk = kg.GenRotationKeys(sk, rotations)
	}
	return &Context{
		Params:    params,
		Encoder:   ckks.NewEncoder(params),
		Encryptor: ckks.NewEncryptor(params, pk, seed+1),
		Decryptor: ckks.NewDecryptor(params, sk),
		Eval:      ckks.NewEvaluator(params, rlk, rtk),
	}
}

// EncryptVector encrypts a real vector at the top level.
func (c *Context) EncryptVector(v []float64) *CT {
	pt := c.Encoder.Encode(v, c.Params.MaxLevel(), c.Params.Scale)
	return WrapCiphertext(c.Encryptor.Encrypt(pt))
}

// DecryptVector decrypts a handle back to its slot values.
func (c *Context) DecryptVector(ct *CT) []float64 {
	return c.Encoder.Decode(c.Decryptor.Decrypt(ct.ct))
}

// encodeOperand is the uncached plainSource: every operand is encoded on
// use.
func (c *Context) encodeOperand(w Plain, k operandKey) *ckks.Plaintext {
	return encodePlain(c.Encoder, w, k)
}
