package main

// Helpers shared by the two workloads that go over TCP: deriving a
// tenant's model, client and plaintext twin through the public standard
// catalog, one metered client exchange, and reading the serving layers'
// own counters back out of a telemetry registry.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"fxhenn/internal/cache"
	"fxhenn/internal/cnn"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// requestTimeout bounds one client exchange; MNIST takes ≈ 2 s.
const requestTimeout = time.Minute

// exchange is what one metered request saw.
type exchange struct {
	logits     []float64
	conn       *meterConn
	start, end time.Time
}

// infer dials addr and runs one encrypted inference through a meterConn.
// digest asks the conn to hash the response for the replay check.
func infer(cl *mlaas.Client, addr string, img *cnn.Tensor, timed, digest bool) (exchange, error) {
	ex := exchange{start: time.Now()}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return ex, err
	}
	defer raw.Close()
	ex.conn = &meterConn{Conn: raw, timed: timed}
	if digest {
		ex.conn.hashResponse()
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	ex.logits, err = cl.Infer(ctx, ex.conn, img)
	ex.end = time.Now()
	return ex, err
}

// wireStats accumulates what the meterConns of a phase saw. Senders add
// concurrently.
type wireStats struct {
	mu sync.Mutex
	// bytes and requests are kept per class (tenant): a tenant's request
	// and response have a fixed size, so the mean over classes is exact
	// whatever number of requests a timed phase happened to fit.
	bytes    map[int]int64
	requests map[int]int
	split    wireSplit
	splits   int
	// spans, when set, receives the five-way split of the first
	// maxRequestSpans exchanges as spans for the trace file.
	spans *runResult
	t0    time.Time
}

const maxRequestSpans = 64

func (w *wireStats) add(class int, ex exchange) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bytes == nil {
		w.bytes, w.requests = map[int]int64{}, map[int]int{}
	}
	w.requests[class]++
	w.bytes[class] += ex.conn.sent + ex.conn.received
	if sp, ok := ex.conn.split(ex.start, ex.end); ok {
		w.split.Encrypt += sp.Encrypt
		w.split.Send += sp.Send
		w.split.Wait += sp.Wait
		w.split.Recv += sp.Recv
		w.split.Decrypt += sp.Decrypt
		w.splits++
		if w.spans != nil && w.splits <= maxRequestSpans {
			w.addSpans(ex, sp)
		}
	}
}

func (w *wireStats) addSpans(ex exchange, sp wireSplit) {
	if w.t0.IsZero() {
		w.t0 = ex.start
	}
	at := ms(ex.start.Sub(w.t0))
	root := w.spans.addSpan(0, w.splits, "request", at, ms(ex.end.Sub(ex.start)))
	for _, part := range []struct {
		name string
		wall float64
	}{
		{"client.encrypt", sp.Encrypt}, {"wire.send", sp.Send}, {"server.wait", sp.Wait},
		{"wire.recv", sp.Recv}, {"client.decrypt", sp.Decrypt},
	} {
		w.spans.addSpan(root, w.splits, part.name, at, part.wall)
		at += part.wall
	}
}

// report writes the byte count per request and, when the conns were
// timed, the mean five-way split.
func (w *wireStats) report(r *runResult) {
	if len(w.requests) == 0 {
		return
	}
	kb := 0.0
	for class, n := range w.requests {
		kb += float64(w.bytes[class]) / 1024 / float64(n) / float64(len(w.requests))
	}
	r.Metrics["wire_kb_per_req"] = kb
	if !r.Trace {
		return
	}
	r.Metrics["wire.kb_per_req"] = kb
	if w.splits == 0 {
		return
	}
	n := float64(w.splits)
	r.Metrics["client.encrypt_ms"] = w.split.Encrypt / n
	r.Metrics["wire.send_ms"] = w.split.Send / n
	r.Metrics["server.wait_ms"] = w.split.Wait / n
	r.Metrics["wire.recv_ms"] = w.split.Recv / n
	r.Metrics["client.decrypt_ms"] = w.split.Decrypt / n
}

// tenant is one registry record with everything derived from it.
type tenant struct {
	rec  registry.Record
	pnet *cnn.Network
	pool []labelled
}

func newTenant(rec registry.Record, images int, seed int64) (*tenant, error) {
	pnet, err := mlaas.StandardPlaintext(rec)
	if err != nil {
		return nil, err
	}
	return &tenant{rec: rec, pnet: pnet, pool: imagePool(pnet, images, seed)}, nil
}

// serveOp is the body of an opFunc that sends one image of tenant number
// class through cl to addr: metered exchange, correctness gate, wire
// accounting.
func serveOp(cl *mlaas.Client, addr string, class int, in labelled, timed bool, ws *wireStats) (float64, error) {
	ex, err := infer(cl, addr, in.img, timed, false)
	if err != nil {
		return 0, err
	}
	ws.add(class, ex)
	return checkLogits(ex.logits, in.want)
}

// replay re-sends a tenant's first request from a fresh client with the
// same encryptor seed and requires the byte-identical response: the
// server is deterministic and so is everything the benchmark fed it.
func replay(rec registry.Record, untenanted bool, encSeed int64, addr string, in labelled, wantDigest string) error {
	cl, err := mlaas.StandardTenantClient(rec, encSeed)
	if err != nil {
		return err
	}
	if untenanted {
		cl.Tenant, cl.TenantGeneration = "", 0
	}
	ex, err := infer(cl, addr, in.img, false, true)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if got := ex.conn.responseDigest(); got != wantDigest {
		return fmt.Errorf("%w: %s then %s", errIncorrectReplay, wantDigest, got)
	}
	return nil
}

// counter reads one labelled counter or gauge from a snapshot (0 when
// the family or the series does not exist — counters are created lazily).
func counter(snap telemetry.Snapshot, family string, labels ...telemetry.Label) float64 {
	if m := snap.Family(family).Metric(labels...); m != nil {
		return m.Value
	}
	return 0
}

// familySum adds every series of a family (shards label theirs by name).
func familySum(snap telemetry.Snapshot, family string) float64 {
	f := snap.Family(family)
	if f == nil {
		return 0
	}
	sum := 0.0
	for _, m := range f.Metrics {
		sum += m.Value
	}
	return sum
}

// reportServing reads the mlaas, cache and pool counters the servers
// published on reg. Call it only after every server's Shutdown has
// returned: the server commits a request's counters after writing its
// last response byte (ROADMAP item 1), so a read that races the last
// response would miss it.
func reportServing(r *runResult, reg *telemetry.Registry) {
	snap := reg.Snapshot()
	for _, p := range []string{"queue", "decode", "validate", "evaluate", "encode"} {
		if m := snap.Family(mlaas.MetricPhaseSeconds).Metric(telemetry.L("phase", p)); m != nil && m.Count > 0 {
			r.Metrics["mlaas.phase_ms."+p] = 1000 * m.Sum / float64(m.Count)
		}
	}
	if m := snap.Family(mlaas.MetricQueueWait).Metric(); m != nil && m.Count > 0 {
		r.Metrics["mlaas.queue_wait_ms_p90"] = 1000 * m.Quantile(0.90)
	}
	status := func(s mlaas.Status) float64 {
		return counter(snap, mlaas.MetricRequestsTotal, telemetry.L("status", s.String()))
	}
	r.Metrics["mlaas.requests.ok"] = status(mlaas.StatusOK)
	r.Metrics["mlaas.requests.busy"] = status(mlaas.StatusBusy) + status(mlaas.StatusShuttingDown)
	r.Metrics["mlaas.requests.bad"] = status(mlaas.StatusBadRequest) + status(mlaas.StatusUnknownTenant)
	r.Metrics["mlaas.requests.internal"] = status(mlaas.StatusInternal)

	plaintexts := telemetry.L("cache", "hecnn_plaintext")
	reportCache(r, cache.Stats{
		Hits:   int64(counter(snap, cache.MetricHits, plaintexts)),
		Misses: int64(counter(snap, cache.MetricMisses, plaintexts)),
		Bytes:  int64(counter(snap, cache.MetricBytes, plaintexts)),
	})

	worker := counter(snap, "parallel_pool_items_total", telemetry.L("mode", "worker"))
	inline := counter(snap, "parallel_pool_items_total", telemetry.L("mode", "inline"))
	reportPool(r, worker, inline)
}

func reportCache(r *runResult, st cache.Stats) {
	r.Metrics["cache.hits"] = float64(st.Hits)
	r.Metrics["cache.misses"] = float64(st.Misses)
	if total := st.Hits + st.Misses; total > 0 {
		r.Metrics["cache.hit_ratio"] = float64(st.Hits) / float64(total)
	}
	r.Metrics["cache.bytes"] = float64(st.Bytes)
}

func reportPool(r *runResult, worker, inline float64) {
	r.Metrics["parallel.tasks"] = worker + inline
	if worker+inline > 0 {
		r.Metrics["parallel.inline_share"] = inline / (worker + inline)
	}
}
