package mlaas

// The standard model catalog: the ModelBuilder behind -registry serving
// and the cluster test harness. A registry record materializes
// deterministically from its seeds — weights from WeightSeed, the whole
// key ceremony from KeySeed — so a shard and a client that share a
// record derive bit-identical key material without any key ever touching
// the registry or the wire. Key rotation is a new KeySeed under a bumped
// generation: the shard rebuilds its evaluation keys, the client
// re-derives its secret key, and requests pinned to the old generation
// are refused instead of evaluated under mismatched keys.
//
// As everywhere else in the reproduction, the ceremony runs in-process:
// the builder derives the secret key transiently to produce the public
// evaluation keys, then drops it — the server role never stores it.
// Ceremony order: every key comes from one stream seeded by KeySeed, drawn
// as secret key, public key, relinearization key, rotation keys (and the
// same on the batch ring's KeySeed+1 stream). The builder draws the
// public key it does not need, so that a record's evaluation keys do not
// depend on whether the ceremony deriving them also publishes it.

import (
	"fmt"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/registry"
)

// standardNet maps a catalog model name to its plaintext network and
// CKKS instantiation, with weights initialized from seed.
func standardNet(model string, weightSeed int64) (*cnn.Network, ckks.Parameters, error) {
	var (
		pnet   *cnn.Network
		params ckks.Parameters
	)
	switch model {
	case "tiny":
		pnet = cnn.NewTinyNet()
		params = ckks.NewParameters(8, 30, 7, 45)
	case "tinyconv":
		pnet = cnn.NewTinyConvNet()
		params = ckks.NewParameters(8, 30, 7, 45)
	case "mnist":
		pnet = cnn.NewMNISTNet()
		params = ckks.ParamsMNIST()
	default:
		return nil, ckks.Parameters{}, fmt.Errorf("mlaas: unknown catalog model %q (tiny, tinyconv, mnist)", model)
	}
	pnet.InitWeights(weightSeed)
	return pnet, params, nil
}

// StandardCatalog returns the ModelBuilder for the stock model catalog
// (tiny, tinyconv, mnist): Config.Models for a registry-backed server.
func StandardCatalog() ModelBuilder { return buildStandardModel }

func buildStandardModel(rec registry.Record) (*TenantModel, error) {
	pnet, params, err := standardNet(rec.Model, rec.WeightSeed)
	if err != nil {
		return nil, err
	}
	henet := hecnn.CompileWith(pnet, params.Slots(), hecnn.Options{BSGS: rec.BSGS})

	kg := ckks.NewKeyGenerator(params, rec.KeySeed)
	sk := kg.GenSecretKey()
	kg.GenPublicKey(sk) // see ceremony order above
	tm := &TenantModel{
		Params: params,
		Net:    henet,
		Rlk:    kg.GenRelinearizationKey(sk),
		Rtk:    kg.GenRotationKeys(sk, henet.RotationsNeeded(params.MaxLevel())),
	}

	if rec.Batch.Size > 0 {
		bparams, err := hecnn.BatchedParams(params, rec.Batch.Size)
		if err != nil {
			return nil, fmt.Errorf("mlaas: tenant %q batch ring: %w", rec.Tenant, err)
		}
		bnet, err := hecnn.CompileBatched(pnet, bparams.Slots())
		if err != nil {
			return nil, fmt.Errorf("mlaas: tenant %q batch compile: %w", rec.Tenant, err)
		}
		// The batch ring gets its own ceremony one seed over.
		bkg := ckks.NewKeyGenerator(bparams, rec.KeySeed+1)
		bsk := bkg.GenSecretKey()
		bkg.GenPublicKey(bsk)
		tm.Batch = &BatchConfig{
			Params: bparams,
			Net:    bnet,
			Rlk:    bkg.GenRelinearizationKey(bsk),
			Rtk:    bkg.GenRotationKeys(bsk, hecnn.BatchRotations(rec.Batch.Size)),
			Size:   rec.Batch.Size,
			Window: rec.Batch.Window(),
		}
	}
	return tm, nil
}

// StandardTenantClient derives the client half of a tenant's standard-
// catalog ceremony: same record, bit-identical keys, with the routing
// frame pre-set to the record's tenant and generation. encSeed seeds the
// encryptor's randomness (two clients with the same encSeed produce
// bit-identical request bytes — the property the differential cluster
// harness pins).
func StandardTenantClient(rec registry.Record, encSeed int64) (*Client, error) {
	pnet, params, err := standardNet(rec.Model, rec.WeightSeed)
	if err != nil {
		return nil, err
	}
	henet := hecnn.CompileWith(pnet, params.Slots(), hecnn.Options{BSGS: rec.BSGS})
	kg := ckks.NewKeyGenerator(params, rec.KeySeed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	c := NewClient(params, henet, pk, sk, encSeed)
	c.Tenant = rec.Tenant
	c.TenantGeneration = rec.Generation
	return c, nil
}

// StandardTenantBatchClient is StandardTenantClient's counterpart for
// the tenant's private batch domain; the record must enable batching.
func StandardTenantBatchClient(rec registry.Record, encSeed int64) (*BatchClient, error) {
	pnet, params, err := standardNet(rec.Model, rec.WeightSeed)
	if err != nil {
		return nil, err
	}
	if rec.Batch.Size <= 0 {
		return nil, fmt.Errorf("mlaas: tenant %q has no batch domain", rec.Tenant)
	}
	bparams, err := hecnn.BatchedParams(params, rec.Batch.Size)
	if err != nil {
		return nil, err
	}
	bnet, err := hecnn.CompileBatched(pnet, bparams.Slots())
	if err != nil {
		return nil, err
	}
	bkg := ckks.NewKeyGenerator(bparams, rec.KeySeed+1)
	bsk := bkg.GenSecretKey()
	bpk := bkg.GenPublicKey(bsk)
	c := NewBatchClient(bparams, bnet, bpk, bsk, encSeed)
	c.Tenant = rec.Tenant
	c.TenantGeneration = rec.Generation
	return c, nil
}

// StandardPlaintext returns the tenant's plaintext network (same weights
// as the served model) — the reference the differential tests compare
// decrypted logits against.
func StandardPlaintext(rec registry.Record) (*cnn.Network, error) {
	pnet, _, err := standardNet(rec.Model, rec.WeightSeed)
	return pnet, err
}
