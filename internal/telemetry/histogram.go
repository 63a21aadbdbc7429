package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefTimeBuckets are the default latency bucket upper bounds in seconds:
// exponential-ish coverage from 100µs (a single cheap HE op) to two
// minutes (the serving layer's default request budget). Values above the
// last bound land in the implicit +Inf overflow bucket.
var DefTimeBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a fixed-bucket histogram with lock-free Observe and
// bucket-interpolated quantile estimation. Buckets are cumulative-style
// upper bounds plus an implicit +Inf overflow bucket; observed min/max
// are tracked exactly so quantiles never extrapolate outside the data.
// The zero value is NOT ready to use — obtain histograms from a Registry
// or newHistogram. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64      // sorted upper bounds; len B
	counts  []atomic.Int64 // len B+1; counts[B] is the overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum via CAS
	minBits atomic.Uint64 // float64; valid only when count > 0
	maxBits atomic.Uint64

	// exemplars[i] holds the most recent exemplar landing in bucket i;
	// lazily allocated on the first ObserveExemplar so plain histograms
	// pay nothing.
	exOnce    sync.Once
	exemplars atomic.Pointer[[]atomic.Pointer[Exemplar]]
}

// Exemplar ties one observed value to the trace that produced it, so a
// histogram bucket in the exposition points at a recorded trace.
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	When    time.Time `json:"when"`
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefTimeBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	casFloat(&h.sumBits, func(old float64) float64 { return old + v })
	casFloat(&h.minBits, func(old float64) float64 { return math.Min(old, v) })
	casFloat(&h.maxBits, func(old float64) float64 { return math.Max(old, v) })
}

// ObserveExemplar records one value and remembers (value, traceID) as
// the exemplar for the bucket it lands in. Callers use either Observe
// or ObserveExemplar for a given measurement, never both — this method
// already counts the observation.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	h.exOnce.Do(func() {
		ex := make([]atomic.Pointer[Exemplar], len(h.bounds)+1)
		h.exemplars.Store(&ex)
	})
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	(*h.exemplars.Load())[i].Store(&Exemplar{Value: v, TraceID: traceID, When: time.Now()})
}

// bucketExemplar returns bucket i's most recent exemplar, or nil.
func (h *Histogram) bucketExemplar(i int) *Exemplar {
	ex := h.exemplars.Load()
	if ex == nil || i < 0 || i >= len(*ex) {
		return nil
	}
	return (*ex)[i].Load()
}

func casFloat(bits *atomic.Uint64, f func(float64) float64) {
	for {
		old := bits.Load()
		nv := math.Float64bits(f(math.Float64frombits(old)))
		if nv == old || bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest observation, or NaN with no observations.
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, or NaN with no observations.
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket containing the rank, clamped to the observed min/max.
// It returns NaN with no observations. Under concurrent Observe the
// estimate is computed from a best-effort snapshot of the buckets.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	// Snapshot the buckets; tearing against concurrent writers only skews
	// the estimate within the writers' in-flight observations.
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantileFromBuckets(q, h.bounds, counts, total, h.Min(), h.Max())
}

// quantileFromBuckets is the shared estimator used by live histograms and
// registry snapshots.
func quantileFromBuckets(q float64, bounds []float64, counts []int64, total int64, min, max float64) float64 {
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		// Rank falls in bucket i spanning (lo, hi].
		lo := min
		if i > 0 {
			lo = math.Max(min, bounds[i-1])
		}
		hi := max
		if i < len(bounds) {
			hi = math.Min(max, bounds[i])
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return max
}
