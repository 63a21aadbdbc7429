package mlaas

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fxhenn/internal/cache"
	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/telemetry"
)

// batchFixture extends the LoLa fixture with the batch ring: derived
// parameters, the batched compilation, and the batch-ring key material.
type batchFixture struct {
	*fixture
	bparams ckks.Parameters
	bnet    *hecnn.BatchedNetwork
	bpk     *ckks.PublicKey
	bsk     *ckks.SecretKey
}

// newBatchFixture builds a batching server: size is the flush occupancy,
// window the coalescing wait. cfg's Batch field is filled in here.
func newBatchFixture(t testing.TB, cfg Config, size int, window time.Duration) *batchFixture {
	t.Helper()
	fx := newFixture(t)
	bparams, err := hecnn.BatchedParams(fx.params, size)
	if err != nil {
		t.Fatal(err)
	}
	bnet, err := hecnn.CompileBatched(fx.pnet, bparams.Slots())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(bparams, 51)
	bsk := kg.GenSecretKey()
	bpk := kg.GenPublicKey(bsk)
	brlk := kg.GenRelinearizationKey(bsk)
	brtk := kg.GenRotationKeys(bsk, hecnn.BatchRotations(size))

	cfg.Batch = &BatchConfig{
		Params: bparams,
		Net:    bnet,
		Rlk:    brlk,
		Rtk:    brtk,
		Size:   size,
		Window: window,
	}
	bfx := &batchFixture{fixture: fx, bparams: bparams, bnet: bnet, bpk: bpk, bsk: bsk}
	bfx.server = NewServerWithConfig(fx.params, fx.henet, fx.rlk, fx.rtk, cfg)
	return bfx
}

func (fx *batchFixture) batchClient(seed int64) *BatchClient {
	return NewBatchClient(fx.bparams, fx.bnet, fx.bpk, fx.bsk, seed)
}

// serveOne runs one Handle exchange on a pipe and returns the client end.
func serveOne(t testing.TB, s *Server) (io.ReadWriteCloser, <-chan struct{}) {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvConn.Close()
		s.Handle(srvConn)
	}()
	return cliConn, done
}

// TestBatchedInferenceCoalesces: concurrent batched clients are coalesced
// into one full-batch flush and every request gets its own image's
// logits back.
func TestBatchedInferenceCoalesces(t *testing.T) {
	reg := telemetry.NewRegistry()
	const size = 3
	fx := newBatchFixture(t, Config{Metrics: reg}, size, time.Minute)

	var wg sync.WaitGroup
	errs := make([]error, size)
	logits := make([][]float64, size)
	images := make([]*cnn.Tensor, size)
	for i := 0; i < size; i++ {
		images[i] = randomImage(int64(100 + i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, done := serveOne(t, fx.server)
			defer func() { conn.Close(); <-done }()
			bc := fx.batchClient(int64(200 + i))
			logits[i], errs[i] = bc.Infer(context.Background(), conn, images[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < size; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		want := fx.pnet.Infer(images[i])
		for j := range want {
			if math.Abs(logits[i][j]-want[j]) > 1e-2 {
				t.Fatalf("client %d logit %d: %g vs %g", i, j, logits[i][j], want[j])
			}
		}
	}
	if got := fx.server.Served(); got != size {
		t.Fatalf("served = %d, want %d", got, size)
	}
	// One full-occupancy flush: the window was a minute, so only the
	// size trigger can have fired.
	if n := fx.server.met.batchFlushes[flushFull].Value(); n != 1 {
		t.Errorf("full flushes = %d, want 1", n)
	}
	if n := fx.server.met.batchOccupancy.Count(); n != 1 {
		t.Errorf("occupancy observations = %d, want 1", n)
	}
}

// TestBatchedSingleRequestWindowFlush: occupancy 1 flushes on the window
// (the per-request fallback: no combine, no co-travellers) and still
// yields correct logits.
func TestBatchedSingleRequestWindowFlush(t *testing.T) {
	reg := telemetry.NewRegistry()
	fx := newBatchFixture(t, Config{Metrics: reg}, 4, 10*time.Millisecond)
	conn, done := serveOne(t, fx.server)
	defer func() { conn.Close(); <-done }()

	img := randomImage(7)
	got, err := fx.batchClient(8).Infer(context.Background(), conn, img)
	if err != nil {
		t.Fatal(err)
	}
	want := fx.pnet.Infer(img)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}
	if n := fx.server.met.batchFlushes[flushWindow].Value(); n != 1 {
		t.Errorf("window flushes = %d, want 1", n)
	}
}

// TestBatchedDeadlinePressureFlush: a member whose budget cannot survive
// the window is flushed early by deadline pressure rather than refused.
func TestBatchedDeadlinePressureFlush(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Window far beyond the request budget: only deadline pressure can
	// flush. RequestBudget bounds the member deadline.
	fx := newBatchFixture(t, Config{Metrics: reg, RequestBudget: 2 * time.Second}, 4, time.Hour)
	conn, done := serveOne(t, fx.server)
	defer func() { conn.Close(); <-done }()

	img := randomImage(9)
	got, err := fx.batchClient(10).Infer(context.Background(), conn, img)
	if err != nil {
		t.Fatal(err)
	}
	want := fx.pnet.Infer(img)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}
	if n := fx.server.met.batchFlushes[flushDeadline].Value(); n != 1 {
		t.Errorf("deadline flushes = %d, want 1", n)
	}
}

// TestBatchedServerBoundaryErrors: hostile batched frames — bad counts,
// shape mismatches, garbage ciphertexts, truncations — are refused with
// StatusBadRequest through the server boundary, never a panic
// (StatusInternal) and never a stalled flush.
func TestBatchedServerBoundaryErrors(t *testing.T) {
	fx := newBatchFixture(t, Config{}, 4, 20*time.Millisecond)
	inputSize := fx.bnet.InputSize()

	frame := func(words ...uint32) []byte {
		var buf bytes.Buffer
		for _, w := range words {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], w)
			buf.Write(b[:])
		}
		return buf.Bytes()
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"zero count", frame(batchMagic, 0)},
		{"count over cap", frame(batchMagic, maxRequestCiphertexts+1)},
		{"count model mismatch", frame(batchMagic, uint32(inputSize+1))},
		{"garbage ciphertexts", append(frame(batchMagic, uint32(inputSize)), bytes.Repeat([]byte{0xFF}, 4096)...)},
		{"truncated after magic", frame(batchMagic)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, msg := parseFailure(t, handleBuf(fx.server, tc.payload))
			if st != StatusBadRequest {
				t.Fatalf("status = %v (%q), want StatusBadRequest", st, msg)
			}
		})
	}
	if p := fx.server.Stats().Panics; p != 0 {
		t.Fatalf("hostile batched frames caused %d panics", p)
	}

	// And a well-formed request still succeeds afterwards: no frame above
	// wedged the scheduler.
	conn, done := serveOne(t, fx.server)
	defer func() { conn.Close(); <-done }()
	img := randomImage(11)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := fx.batchClient(12).Infer(ctx, conn, img); err != nil {
		t.Fatalf("post-hostile inference failed: %v", err)
	}
}

// TestBatchedDisabledServerRejectsMagic: a server without batching treats
// the magic as the hostile count it is — old servers are wire-compatible
// with new clients by refusing them cleanly.
func TestBatchedDisabledServerRejectsMagic(t *testing.T) {
	fx := newFixture(t)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], batchMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 64)
	st, msg := parseFailure(t, handleBuf(fx.server, hdr[:]))
	if st != StatusBadRequest || !strings.Contains(msg, "outside [1,") {
		t.Fatalf("status = %v (%q), want bad-count refusal", st, msg)
	}
}

// readRecorder keeps every byte read through it.
type readRecorder struct {
	io.ReadWriter
	got bytes.Buffer
}

func (r *readRecorder) Read(p []byte) (int, error) {
	n, err := r.ReadWriter.Read(p)
	r.got.Write(p[:n])
	return n, err
}

// TestBatchDomainCacheBytes: the batch domain honours Config.CacheBytes
// as the LoLa path does. With -1 nothing is resident — every batch
// encodes its operands and cache_bytes{cache="hecnn_batched_plaintext"}
// stays 0 — and the raw responses are byte-identical to a server whose
// default budget keeps every operand resident and encodes nothing after
// warm-up.
func TestBatchDomainCacheBytes(t *testing.T) {
	const batches = 2
	serve := func(budget int64) (responses []string, encodes []int64, residentBytes float64) {
		reg := telemetry.NewRegistry()
		fx := newBatchFixture(t, Config{Metrics: reg, CacheBytes: budget}, 2, time.Millisecond)
		cb := fx.server.def.bat.cb
		bc := fx.batchClient(9)
		encodes = append(encodes, cb.EncodeCalls())
		for i := range batches {
			conn, done := serveOne(t, fx.server)
			rec := &readRecorder{ReadWriter: conn}
			if _, err := bc.Infer(context.Background(), rec, randomImage(int64(60+i))); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			<-done
			responses = append(responses, fmt.Sprintf("%x", sha256.Sum256(rec.got.Bytes())))
			encodes = append(encodes, cb.EncodeCalls())
		}
		m := reg.Snapshot().Family(cache.MetricBytes).Metric(telemetry.L("cache", "hecnn_batched_plaintext"))
		return responses, encodes, m.Value
	}
	want, resident, bytesAll := serve(0)
	got, uncached, bytesNone := serve(-1)
	if !slices.Equal(got, want) {
		t.Fatalf("responses with nothing resident %v, with everything resident %v", got, want)
	}
	for i := 1; i <= batches; i++ {
		if resident[i] != resident[0] {
			t.Errorf("default budget: encodes %v grew after warm-up", resident)
		}
		if uncached[i] <= uncached[i-1] {
			t.Errorf("CacheBytes -1: encodes %v did not grow per batch", uncached)
		}
	}
	if uncached[0] != 0 || bytesNone != 0 || bytesAll == 0 {
		t.Errorf("warm-up encodes %d and cache_bytes %g with nothing resident, cache_bytes %g with everything",
			uncached[0], bytesNone, bytesAll)
	}
}

// fakeOutcome builds an evalHook result distinguishable per flush.
func fakeOuts(n int) []*hecnn.CT {
	outs := make([]*hecnn.CT, n)
	for i := range outs {
		outs[i] = hecnn.FreshCT(1)
	}
	return outs
}

// newUnitBatcher builds a batcher with an injected evaluation stub so
// scheduler logic is tested without ring arithmetic.
func newUnitBatcher(size int, window time.Duration, slots int) (*batcher, *int) {
	evals := new(int)
	b := newBatcher(BatchConfig{Size: size, Window: window}, nil, nil, newAdmitter(slots, 0, nil), nil)
	b.evalHook = func(members [][]*hecnn.CT) ([]*hecnn.CT, error) {
		*evals++
		return fakeOuts(4), nil
	}
	go b.run()
	return b, evals
}

func unitMember(budget time.Duration) *batchMember {
	return &batchMember{
		arrival:  time.Now(),
		deadline: time.Now().Add(budget),
		result:   make(chan batchOutcome, 1),
	}
}

func waitOutcome(t *testing.T, m *batchMember, within time.Duration) batchOutcome {
	t.Helper()
	select {
	case out := <-m.result:
		return out
	case <-time.After(within):
		t.Fatal("no batch outcome within deadline")
		return batchOutcome{}
	}
}

// TestBatchSchedulerFullFlush: size members flush immediately with stable
// slot assignment, well before the window.
func TestBatchSchedulerFullFlush(t *testing.T) {
	b, _ := newUnitBatcher(3, time.Hour, 1)
	defer b.stop()
	members := []*batchMember{unitMember(time.Hour), unitMember(time.Hour), unitMember(time.Hour)}
	for _, m := range members {
		if we := b.submit(m); we != nil {
			t.Fatal(we)
		}
	}
	for i, m := range members {
		out := waitOutcome(t, m, 5*time.Second)
		if out.err != nil {
			t.Fatalf("member %d: %v", i, out.err)
		}
		if out.slot != i {
			t.Errorf("member %d assigned slot %d", i, out.slot)
		}
	}
}

// TestBatchSchedulerWindowAndDeadline: a lone member flushes at the
// window; a member that cannot afford the window flushes at its deadline.
func TestBatchSchedulerWindowAndDeadline(t *testing.T) {
	b, _ := newUnitBatcher(8, 30*time.Millisecond, 1)
	defer b.stop()
	m := unitMember(time.Hour)
	start := time.Now()
	if we := b.submit(m); we != nil {
		t.Fatal(we)
	}
	if out := waitOutcome(t, m, 5*time.Second); out.err != nil {
		t.Fatal(out.err)
	}
	if e := time.Since(start); e < 20*time.Millisecond {
		t.Errorf("window flush after %v — did not wait for the window", e)
	}

	b2, _ := newUnitBatcher(8, time.Hour, 1)
	defer b2.stop()
	tight := unitMember(25 * time.Millisecond)
	if we := b2.submit(tight); we != nil {
		t.Fatal(we)
	}
	if out := waitOutcome(t, tight, 5*time.Second); out.err != nil {
		t.Fatal(out.err)
	}
}

// TestBatchSchedulerCancelledNeverStalls: a member whose handler timed
// out (claimed it away) is skipped, and the remaining members still
// flush with dense slot assignments.
func TestBatchSchedulerCancelledNeverStalls(t *testing.T) {
	b, evals := newUnitBatcher(2, 40*time.Millisecond, 1)
	defer b.stop()
	gone := unitMember(time.Hour)
	alive := unitMember(time.Hour)
	if we := b.submit(gone); we != nil {
		t.Fatal(we)
	}
	// The handler abandons the member exactly as batcher.await does.
	if !gone.claimed.CompareAndSwap(false, true) {
		t.Fatal("member claimed before any flush")
	}
	if we := b.submit(alive); we != nil {
		t.Fatal(we)
	}
	out := waitOutcome(t, alive, 5*time.Second)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.slot != 0 {
		t.Errorf("surviving member got slot %d, want 0 (cancelled member must not occupy a slot)", out.slot)
	}
	if *evals != 1 {
		t.Errorf("evaluations = %d, want 1", *evals)
	}
	select {
	case <-gone.result:
		t.Error("cancelled member received an outcome")
	default:
	}
}

// TestBatchSchedulerDrainAndStop: drain flushes what is pending without
// waiting for the window; stop fails pending members typed, not hung.
func TestBatchSchedulerDrainAndStop(t *testing.T) {
	b, _ := newUnitBatcher(8, time.Hour, 1)
	m := unitMember(time.Hour)
	if we := b.submit(m); we != nil {
		t.Fatal(we)
	}
	b.drain()
	if out := waitOutcome(t, m, 5*time.Second); out.err != nil {
		t.Fatal(out.err)
	}
	b.stop()
	if we := b.submit(unitMember(time.Hour)); we == nil || we.status != StatusShuttingDown {
		t.Fatalf("submit after stop = %v, want shutting-down refusal", we)
	}

	b2, _ := newUnitBatcher(8, time.Hour, 1)
	m2 := unitMember(time.Hour)
	if we := b2.submit(m2); we != nil {
		t.Fatal(we)
	}
	b2.stop()
	out := waitOutcome(t, m2, 5*time.Second)
	if out.err == nil || out.err.status != StatusShuttingDown {
		t.Fatalf("stopped member outcome = %+v, want shutting-down", out)
	}
}

// TestBatchSchedulerEvalFailure: an evaluation error reaches every member
// as StatusInternal instead of wedging them.
func TestBatchSchedulerEvalFailure(t *testing.T) {
	b := newBatcher(BatchConfig{Size: 2, Window: time.Hour}, nil, nil, newAdmitter(1, 0, nil), nil)
	b.evalHook = func([][]*hecnn.CT) ([]*hecnn.CT, error) {
		return nil, errors.New("synthetic evaluation failure")
	}
	go b.run()
	defer b.stop()
	ms := []*batchMember{unitMember(time.Hour), unitMember(time.Hour)}
	for _, m := range ms {
		if we := b.submit(m); we != nil {
			t.Fatal(we)
		}
	}
	for i, m := range ms {
		out := waitOutcome(t, m, 5*time.Second)
		if out.err == nil || out.err.status != StatusInternal {
			t.Fatalf("member %d outcome %+v, want StatusInternal", i, out)
		}
	}
}

// TestBatchHammerStaggeredDeadlines is the -race hammer: concurrent
// batched clients with staggered deadlines — some generous, some so
// tight they abandon their batch — against one server. Every success
// must carry its own image's logits; abandoners must fail typed; no
// request may stall a flush for the others. FXHENN_HAMMER_ITERS scales
// the load in nightly CI.
func TestBatchHammerStaggeredDeadlines(t *testing.T) {
	fx := newBatchFixture(t, Config{MaxConcurrent: 2, RequestBudget: time.Minute}, 4, 5*time.Millisecond)
	rounds := 2 * hammerScale()
	const perRound = 6

	// Real sockets, not net.Pipe: refusals (Busy) are written while the
	// client may still be mid-request, which deadlocks a lockstep pipe but
	// is absorbed by a socket buffer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fx.server.Handle(conn)
			}()
		}
	}()

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go func(round, i int) {
				defer wg.Done()
				seed := int64(1000 + round*perRound + i)
				img := randomImage(seed)
				// Stagger: every third client gets a deadline so tight it
				// usually abandons the batch before the flush.
				budget := time.Minute
				if i%3 == 2 {
					budget = time.Duration(i) * time.Millisecond / 2
				}
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				defer cancel()

				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Errorf("client %d/%d dial: %v", round, i, err)
					return
				}
				defer conn.Close()
				bc := fx.batchClient(seed + 5000)
				got, err := bc.Infer(ctx, conn, img)
				if err != nil {
					// Tight-deadline clients may fail by context, transport
					// (severed pipe), or a typed busy — all acceptable; what
					// is not acceptable is a wrong answer or a hang.
					var se *StatusError
					var te *TransportError
					if !errors.As(err, &se) && !errors.As(err, &te) &&
						!errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("client %d/%d unexpected error type: %v", round, i, err)
					}
					return
				}
				want := fx.pnet.Infer(img)
				for j := range want {
					if math.Abs(got[j]-want[j]) > 1e-2 {
						t.Errorf("client %d/%d logit %d: %g vs %g — demux mixed up images",
							round, i, j, got[j], want[j])
						return
					}
				}
			}(round, i)
		}
		wg.Wait()
	}

	// The server drains cleanly afterwards: nothing is wedged in the
	// scheduler.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fx.server.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after hammer: %v", err)
	}
}

// TestBatchedShutdownDrainsParkedMembers: a member parked in the batch
// when Shutdown begins is flushed and answered, not dropped.
func TestBatchedShutdownDrainsParkedMembers(t *testing.T) {
	fx := newBatchFixture(t, Config{}, 4, time.Hour)
	conn, done := serveOne(t, fx.server)
	defer func() { conn.Close(); <-done }()

	img := randomImage(13)
	resCh := make(chan error, 1)
	var got []float64
	go func() {
		var err error
		got, err = fx.batchClient(14).Infer(context.Background(), conn, img)
		resCh <- err
	}()

	// Wait until the member is parked (pending non-empty), then drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		fx.server.def.bat.mu.Lock()
		parked := len(fx.server.def.bat.pending) > 0
		fx.server.def.bat.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("member never parked")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fx.server.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("parked inference failed across drain: %v", err)
	}
	want := fx.pnet.Infer(img)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}
}

var _ = fmt.Sprintf // keep fmt imported if cases above change
