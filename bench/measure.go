package main

// Shared measurement scaffolding: the correctness gate every operation
// passes through, repeated set-up, the allocation/GC meter around the
// timed phases, and the end-to-end metric arithmetic.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"fxhenn/internal/cnn"
	"fxhenn/internal/workload"
)

// logitTolerance is the differential cluster harness's encoderTolerance:
// a decrypted logit further than this from the plaintext network's is a
// wrong answer, not noise.
const logitTolerance = 1e-2

// tieMargin is the gap between two plaintext logits below which which of
// them is larger is not a property of the network but of rounding: with
// seeded random weights some networks put their two best classes within
// 1e-4 of each other on every image, and CKKS noise (≈ 2^-16 on MNIST)
// then picks either. At 1e-3 the decrypted class can differ from a clear
// plaintext decision only if precision has fallen below 11 bits.
const tieMargin = 1e-3

// checkLogits is the per-operation correctness gate: no logit may be off
// by more than logitTolerance, and the decrypted class must be the
// plaintext class unless the plaintext network itself separates the two
// by less than tieMargin. It returns the largest error seen.
func checkLogits(got, want []float64) (float64, error) {
	if len(got) < len(want) {
		return 0, fmt.Errorf("got %d logits, want %d", len(got), len(want))
	}
	maxErr := 0.0
	for i := range want {
		if e := math.Abs(got[i] - want[i]); e > maxErr || math.IsNaN(e) {
			maxErr = e
		}
	}
	if !(maxErr <= logitTolerance) {
		return maxErr, fmt.Errorf("max logit error %.3g exceeds %.0e", maxErr, logitTolerance)
	}
	if g, w := argmax(got[:len(want)]), argmax(want); g != w && want[w]-want[g] >= tieMargin {
		return maxErr, fmt.Errorf("decrypted class %d, plaintext class %d (plaintext margin %.3g)", g, w, want[w]-want[g])
	}
	return maxErr, nil
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// maxPrecisionBits caps precision_bits: a float64 carries no more, and an
// exact match (dse_explore against its committed values) reads as this.
const maxPrecisionBits = 53

// precisionBits is −log2 of the largest error over all operations.
func precisionBits(maxErr float64) float64 {
	if maxErr <= 0 {
		return maxPrecisionBits
	}
	return math.Min(maxPrecisionBits, -math.Log2(maxErr))
}

// subSeed derives the k-th independent seed of a run from -seed.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// labelled is one input image with the plaintext network's answer.
type labelled struct {
	img  *cnn.Tensor
	want []float64
}

// imagePool generates n distinct seeded images for pnet and their
// plaintext logits, outside any timed phase.
func imagePool(pnet *cnn.Network, n int, seed int64) []labelled {
	out := make([]labelled, n)
	for i, img := range workload.Batch(pnet, n, seed) {
		out[i] = labelled{img: img, want: pnet.Infer(img)}
	}
	return out
}

// setupReps decides from the first set-up how many a run times. The count
// is odd, so the median reported as setup_s is a set-up that happened and
// one slow key generation cannot move it; a set-up of seconds (mnist_single:
// ≈ 7.5 s) is timed once, because repeating it would come out of the timed
// phase and the driver takes the median over its ten runs anyway.
func setupReps(first time.Duration) int {
	switch {
	case first < time.Second:
		return 5
	case first < 3*time.Second:
		return 3
	}
	return 1
}

// repeatSetup times build (construct the stack and warm it up to the
// point where the first timed operation could start) setupReps times,
// tears down every stack but the last, and returns that one with the
// median set-up time. once skips the repetitions (traced pass and smoke
// tests, which do not report setup_s).
func repeatSetup[T any](once bool, build func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		stack T
		times []float64
	)
	for reps := 1; len(times) < reps; {
		if len(times) > 0 {
			teardown(stack)
			runtime.GC()
		}
		start := time.Now()
		s, err := build()
		if err != nil {
			return stack, 0, err
		}
		stack = s
		d := time.Since(start)
		times = append(times, d.Seconds())
		if len(times) == 1 && !once {
			reps = setupReps(d)
		}
	}
	return stack, median(times), nil
}

// meter brackets the timed phases of a run with the runtime's own
// accounting, read from outside the measured code: two MemStats reads
// and a sampler that looks at the process every 50 ms.
type meter struct {
	before  runtime.MemStats
	gcCPU0  float64
	allCPU0 float64

	stop     chan struct{}
	done     sync.WaitGroup
	rssMB    []float64 // VmRSS samples
	peakLive uint64    // largest live heap seen (traced pass only)
}

const (
	metricGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
	metricAllCPU = "/cpu/classes/total:cpu-seconds"
	metricLive   = "/memory/classes/heap/objects:bytes"
	samplePeriod = 50 * time.Millisecond
)

func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	}
	return 0
}

func startMeter(trace bool) *meter {
	m := &meter{stop: make(chan struct{})}
	runtime.GC() // set-up garbage is not the timed phase's to collect
	runtime.ReadMemStats(&m.before)
	m.gcCPU0, m.allCPU0 = readFloat(metricGCCPU), readFloat(metricAllCPU)
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			if rss := residentMB(); rss > 0 {
				m.rssMB = append(m.rssMB, rss)
			}
			if trace {
				if live := uint64(readFloat(metricLive)); live > m.peakLive {
					m.peakLive = live
				}
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// finish closes the bracket and writes the memory metrics for ops timed
// operations into r.
func (m *meter) finish(r *runResult, ops int) {
	close(m.stop)
	m.done.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops < 1 {
		ops = 1
	}
	const mb = 1 << 20
	r.Metrics["alloc_mb_per_op"] = float64(after.TotalAlloc-m.before.TotalAlloc) / mb / float64(ops)
	// The high-water mark of a small, GC-churning process (dse_explore:
	// 20 MB, 200 collections a second) is set by one sub-50 ms overshoot
	// and moves ±25 % between identical runs, and a high percentile of a
	// large one (mnist_single: a 2 GB sawtooth) lands on a different tooth
	// each run. The median of the sampled resident set moves ±1–4 % on all
	// four workloads, so that is the gated metric.
	sort.Float64s(m.rssMB)
	r.Metrics["rss_mb_p50"] = percentile(m.rssMB, 0.50)
	r.Metrics["rss_peak_mb"] = peakRSSMB()
	if len(m.rssMB) == 0 { // no /proc: the runtime's own view
		r.Metrics["rss_mb_p50"] = float64(after.Sys) / mb
		r.Metrics["rss_peak_mb"] = float64(after.Sys) / mb
	}
	if !r.Trace {
		return
	}
	r.Metrics["runtime.allocs_per_op"] = float64(after.Mallocs-m.before.Mallocs) / float64(ops)
	r.Metrics["runtime.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
	r.Metrics["runtime.gc_pause_ms_total"] = float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
	if cpu := readFloat(metricAllCPU) - m.allCPU0; cpu > 0 {
		r.Metrics["runtime.gc_cpu_share"] = (readFloat(metricGCCPU) - m.gcCPU0) / cpu
	}
	r.Metrics["runtime.heap_live_mb_peak"] = float64(m.peakLive) / mb
}

// reportLoad writes the client-visible metrics of a run from the phase
// whose operations users wait on: latency, correct work completed per
// second of that phase, and the share of the operations it scheduled that
// were answered correctly within the workload's limit. unitsPerOp is how
// many images one operation carries (8 for a batch).
//
// classes is how many kinds of operation take turns in the phase
// (operation i is of kind i mod classes). The median is taken per kind and
// averaged: tiny_cluster_open alternates two fast and two slow tenants,
// and the median of such a two-humped pool sits in the gap between the
// humps, where it moved 17–24 ms between seeds on a quiet host.
func (r *runResult) reportLoad(w workloadSpec, latency phase, unitsPerOp, classes int, maxErr float64) {
	ok := latency.ok()
	lat := sortedMS(ok, sample.latency)
	perClass := make([][]sample, classes)
	for _, s := range ok {
		perClass[s.Index%classes] = append(perClass[s.Index%classes], s)
	}
	p50 := 0.0
	for _, c := range perClass {
		p50 += percentile(sortedMS(c, sample.latency), 0.50) / float64(classes)
	}
	r.Metrics["latency_ms_p50"] = p50
	r.Samples["latency_ms_p50"] = len(lat)
	if tailSupported(len(lat), 0.90) {
		r.Metrics["latency_ms_p90"] = percentile(lat, 0.90)
		r.Samples["latency_ms_p90"] = len(lat)
	}
	if latency.Wall > 0 {
		r.Metrics["throughput_per_s"] = float64(len(ok)*unitsPerOp) / latency.Wall.Seconds()
	}
	if n := len(latency.Samples); n > 0 {
		limit := time.Duration(w.LimitMS * float64(time.Millisecond))
		r.Metrics["within_limit_share"] = float64(latency.withinLimit(limit)) / float64(n)
	}
	if r.Attempted > 0 {
		r.Metrics["failed_share"] = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics["precision_bits"] = precisionBits(maxErr)

	if !r.Trace {
		return
	}
	late := sortedMS(latency.Samples, sample.lateness)
	r.Metrics["gen.sent"] = float64(len(latency.Samples))
	r.Metrics["gen.completed"] = float64(len(ok))
	r.Metrics["gen.lateness_ms_p50"] = percentile(late, 0.50)
	r.Metrics["gen.lateness_ms_max"] = percentile(late, 1)
	r.Metrics["gen.latency_ms_p50"] = p50
	r.Metrics["gen.latency_ms_p90"] = tailPercentile(lat, 0.90)
	r.Metrics["gen.latency_ms_p99"] = tailPercentile(lat, 0.99)
}

var errIncorrectReplay = errors.New("replayed request produced a different response digest")
