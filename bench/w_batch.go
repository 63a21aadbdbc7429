package main

// mnist_batch8: the same hecnn/ckks/ring code driven the opposite way.
// Eight MNIST images ride in the slots of one CryptoNets-style batch on
// the smallest ring with eight slots (N=32), so each of the ~10^5 ring
// operations per batch is a few hundred nanoseconds of arithmetic behind
// an allocation: the workload is bound by per-call overhead and GC, not
// by the NTT. One goroutine, no wire, no worker pool.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
)

const batchCapacity = 8

type batchStack struct {
	pnet    *cnn.Network
	bnet    *hecnn.BatchedNetwork
	ctx     *hecnn.Context
	cb      *hecnn.CompiledBatched
	pool    []labelled
	keySeed int64
	// firstDigest digests the logits of the context's first batch (the
	// first warm-up), replayed on a fresh same-seed context at the end.
	firstDigest string
}

// batchOf returns the i-th batch of the pool: 8 consecutive images.
func (s *batchStack) batchOf(i int) []labelled {
	out := make([]labelled, batchCapacity)
	for j := range out {
		out[j] = s.pool[(i*batchCapacity+j)%len(s.pool)]
	}
	return out
}

// runBatch evaluates one batch end to end (pack, encrypt, evaluate,
// decrypt) and gates every image of it.
func (s *batchStack) runBatch(ctx *hecnn.Context, batch []labelled) (logits [][]float64, maxErr float64, err error) {
	imgs := make([]*cnn.Tensor, len(batch))
	for i, in := range batch {
		imgs[i] = in.img
	}
	logits, _, err = s.cb.RunBatch(ctx, imgs)
	if err != nil {
		return nil, 0, err
	}
	for i, in := range batch {
		e, err := checkLogits(logits[i], in.want)
		if err != nil {
			return logits, e, fmt.Errorf("image %d of the batch: %w", i, err)
		}
		maxErr = math.Max(maxErr, e)
	}
	return logits, maxErr, nil
}

func logitsDigest(logits [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range logits {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func batchBase(cfg runConfig) (*cnn.Network, ckks.Parameters) {
	if cfg.Small {
		return cnn.NewTinyNet(), ckks.NewParameters(8, 30, 7, 45)
	}
	return cnn.NewMNISTNet(), ckks.ParamsMNIST()
}

func buildBatch(cfg runConfig) (*batchStack, error) {
	pnet, base := batchBase(cfg)
	pnet.InitWeights(subSeed(cfg.Seed, seedWeights))
	params, err := hecnn.BatchedParams(base, batchCapacity)
	if err != nil {
		return nil, err
	}
	s := &batchStack{pnet: pnet, keySeed: subSeed(cfg.Seed, seedKeys)}
	if s.bnet, err = hecnn.CompileBatched(pnet, params.Slots()); err != nil {
		return nil, err
	}
	s.ctx = hecnn.NewContext(params, s.keySeed, hecnn.BatchRotations(batchCapacity))
	s.cb = hecnn.NewCompiledBatched(s.bnet, params, s.ctx.Encoder, 0)
	s.cb.Warm(params.MaxLevel())
	s.pool = imagePool(pnet, 8*batchCapacity, subSeed(cfg.Seed, seedImages))

	for warm := 0; warm < 2; warm++ {
		logits, _, err := s.runBatch(s.ctx, s.batchOf(0))
		if err != nil {
			return nil, fmt.Errorf("warm-up batch: %w", err)
		}
		if warm == 0 {
			s.firstDigest = logitsDigest(logits)
		}
	}
	return s, nil
}

func runMNISTBatch8(w workloadSpec, cfg runConfig) (*runResult, error) {
	r := newResult(w.Name, cfg)
	s, setup, err := repeatSetup(cfg.Trace || cfg.Small, func() (*batchStack, error) { return buildBatch(cfg) }, func(*batchStack) {})
	if err != nil {
		return nil, err
	}
	r.Metrics["setup_s"] = setup

	m := startMeter(cfg.Trace)
	ph := runClosed(wallClock, 1, cfg.duration(), cfg.MaxOps, func(_, i int) (float64, error) {
		_, maxErr, err := s.runBatch(s.ctx, s.batchOf(i+1))
		return maxErr, err
	})
	m.finish(r, len(ph.Samples))
	r.countPhase("closed", ph)
	r.reportLoad(w, ph, batchCapacity, 1, ph.maxErr())

	// Replay: a fresh context from the same key seed encrypts the first
	// batch with the same randomness, so the logits must match bit for bit.
	fresh := hecnn.NewContext(s.ctx.Params, s.keySeed, hecnn.BatchRotations(batchCapacity))
	logits, _, err := s.runBatch(fresh, s.batchOf(0))
	if err != nil {
		r.fail("replay: %v", err)
	} else if got := logitsDigest(logits); got != s.firstDigest {
		r.fail("%v: %s then %s", errIncorrectReplay, s.firstDigest, got)
	}

	if cfg.Trace {
		batchLab(r, cfg, s)
	}
	return r, nil
}

// batchLab runs the crypto-layer laboratory on the batched network. The
// workload already evaluates in process and serially, so the lab reuses
// its context, cache and keys.
func batchLab(r *runResult, cfg runConfig, s *batchStack) {
	imgs := make([]*cnn.Tensor, batchCapacity)
	for i, in := range s.batchOf(0) {
		imgs[i] = in.img
	}
	packed, err := s.bnet.PackBatch(imgs)
	if err != nil {
		r.fail("lab: %v", err)
		return
	}
	var cts []*hecnn.CT
	for _, v := range packed {
		cts = append(cts, s.ctx.EncryptVector(v))
	}
	ev := evaluable{
		ctx:     s.ctx,
		backend: func(rec *hecnn.Recorder) hecnn.Backend { return s.cb.Backend(s.ctx, rec) },
		eval: func(b hecnn.Backend) int {
			outs := s.bnet.Evaluate(b, cts)
			return outs[0].Level()
		},
		encodeCalls: s.cb.EncodeCalls,
		rotations:   hecnn.BatchRotations(batchCapacity),
	}
	sp := labSpeedFor(cfg)
	kernelMetrics(r, sp, s.ctx.Params)
	costs := newOpCosts()
	traceEvaluation(r, sp, ev, costs, 1, 0)
	ckksMetrics(r, sp, ev, costs)
	reportCache(r, s.cb.CacheStats())
	st := parallelSpeedup(r, sp, ev)
	reportPool(r, float64(st.Dispatched), float64(st.Inline))
}
