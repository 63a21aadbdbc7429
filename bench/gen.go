package main

// The benchmark's own load generator (internal/loadgen is left alone: its
// percentiles are bucket-interpolated and it has no due-time accounting
// per request). Two loops drive an opFunc from a fixed set of sender
// goroutines:
//
//   - runClosed: each sender issues its next operation when the previous
//     one returns, so a slow system receives less load;
//   - runOpen: senders pull requests from a seeded Poisson schedule and
//     start each at its due time or as soon after as a sender is free.
//     Latency is timed from the due time, so a stall charges every
//     request queued behind it (no coordinated omission), and how late
//     the generator itself ran is reported as lateness.
//
// Every operation leaves one raw sample; percentiles are exact order
// statistics over those samples.

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc is one client-perceived operation, run by sender on request
// index. It returns the largest |decrypted − plaintext| logit error it
// observed, or the reason the operation failed (errored, refused, or
// answered incorrectly).
type opFunc func(sender, index int) (maxErr float64, err error)

// sample is the raw record of one operation. Times are offsets from the
// start of its phase.
type sample struct {
	Index  int
	Due    time.Duration
	Start  time.Duration
	End    time.Duration
	MaxErr float64
	Err    error
}

// latency is what the client perceived: completion minus due time.
func (s sample) latency() time.Duration { return s.End - s.Due }

// lateness is how far behind its schedule the generator started the op.
func (s sample) lateness() time.Duration { return s.Start - s.Due }

// clock lets tests drive the loops on simulated time.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// phase is the outcome of one loop: every sample in index order and the
// wall time from the first start to the last completion.
type phase struct {
	Samples []sample
	Wall    time.Duration
}

// runClosed drives op from `senders` goroutines until `d` has elapsed or
// maxOps operations have been issued (maxOps 0 = no cap). An operation
// in flight at the deadline is finished and counted.
func runClosed(clk clock, senders int, d time.Duration, maxOps int, op opFunc) phase {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := clk.now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for {
				begin := clk.now().Sub(start)
				if begin >= d {
					return
				}
				i := int(next.Add(1)) - 1
				if maxOps > 0 && i >= maxOps {
					return
				}
				maxErr, err := op(sender, i)
				sm := sample{Index: i, Due: begin, Start: begin, End: clk.now().Sub(start), MaxErr: maxErr, Err: err}
				mu.Lock()
				samples = append(samples, sm)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return finishPhase(samples)
}

// runOpen issues request i at schedule[i] after the phase start, on the
// first free sender. With every sender busy the request starts late; its
// latency still counts from schedule[i].
func runOpen(clk clock, schedule []time.Duration, senders int, op opFunc) phase {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		samples = make([]sample, len(schedule))
	)
	start := clk.now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				due := schedule[i]
				if wait := due - clk.now().Sub(start); wait > 0 {
					clk.sleep(wait)
				}
				begin := clk.now().Sub(start)
				maxErr, err := op(sender, i)
				samples[i] = sample{Index: i, Due: due, Start: begin, End: clk.now().Sub(start), MaxErr: maxErr, Err: err}
			}
		}(s)
	}
	wg.Wait()
	return finishPhase(samples)
}

func finishPhase(samples []sample) phase {
	sort.Slice(samples, func(i, j int) bool { return samples[i].Index < samples[j].Index })
	p := phase{Samples: samples}
	for _, s := range samples {
		if s.End > p.Wall {
			p.Wall = s.End
		}
	}
	return p
}

// poissonSchedule returns the due offsets of a Poisson arrival process of
// the given rate over d, reproducible from seed and conditioned on its
// count: exactly round(rate × d) arrivals, placed independently and
// uniformly over the phase, which is what a Poisson process looks like once
// its count is known. Every seed therefore offers the same number of
// requests and only their spacing differs; left free, the count alone moved
// ±4 % between seeds and every per-run total with it.
func poissonSchedule(seed int64, ratePerSec float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(math.Round(ratePerSec*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ok returns the samples whose operation succeeded.
func (p phase) ok() []sample {
	out := make([]sample, 0, len(p.Samples))
	for _, s := range p.Samples {
		if s.Err == nil {
			out = append(out, s)
		}
	}
	return out
}

// failed counts the operations that errored, were refused or answered
// incorrectly.
func (p phase) failed() int { return len(p.Samples) - len(p.ok()) }

// withinLimit counts successful operations answered within limit of
// their due time.
func (p phase) withinLimit(limit time.Duration) int {
	n := 0
	for _, s := range p.Samples {
		if s.Err == nil && s.latency() <= limit {
			n++
		}
	}
	return n
}

// maxErr is the largest logit error over the successful operations.
func (p phase) maxErr() float64 {
	m := 0.0
	for _, s := range p.Samples {
		if s.Err == nil && s.MaxErr > m {
			m = s.MaxErr
		}
	}
	return m
}

// ms is a duration in (fractional) milliseconds, the unit of every latency
// metric.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMS converts per-sample durations to sorted milliseconds.
func sortedMS(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(f(s))
	}
	sort.Float64s(out)
	return out
}

// percentile is the exact nearest-rank order statistic of sorted: the
// smallest value with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer and the figure is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailSupported reports whether n samples support percentile q under the
// minBeyond rule.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= minBeyond
}

// tailPercentile is percentile under the minBeyond rule; unsupported
// percentiles read 0.
func tailPercentile(sorted []float64, q float64) float64 {
	if !tailSupported(len(sorted), q) {
		return 0
	}
	return percentile(sorted, q)
}

// median of an unsorted slice (mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
