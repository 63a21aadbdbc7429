package mlaas

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
)

// newWorkersFixture is newFixture with an explicit pool size (and its own
// Parameters instance, so pools from different tests never interfere).
func newWorkersFixture(t testing.TB, workers int) *fixture {
	t.Helper()
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(21)
	henet := hecnn.Compile(pnet, params.Slots())

	kg := ckks.NewKeyGenerator(params, 31)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtk := kg.GenRotationKeys(sk, henet.RotationsNeeded(params.MaxLevel()))

	return &fixture{
		params: params,
		pnet:   pnet,
		henet:  henet,
		server: NewServerWithConfig(params, henet, rlk, rtk, Config{
			MaxConcurrent: 8,
			Workers:       workers,
			IOTimeout:     time.Minute,
		}),
		client: NewClient(params, henet, pk, sk, 41),
		pk:     pk,
		sk:     sk,
		rlk:    rlk,
		rtk:    rtk,
	}
}

// TestConcurrentEvaluateSharedPool hammers one server — one evaluator, one
// worker pool — with concurrent inferences under -race: every response must
// decode to the plaintext logits, and inter-request concurrency must share
// the pool with each request's internal fan-out without deadlock.
func TestConcurrentEvaluateSharedPool(t *testing.T) {
	fx := newWorkersFixture(t, 3)
	img := randomImage(1)
	want := fx.pnet.Infer(img)

	const requests = 8
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cliConn, srvConn := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer srvConn.Close()
				fx.server.Handle(srvConn)
			}()
			// One client per goroutine: the client's encryptor PRNG is
			// stateful and not safe to share.
			client := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 41)
			got, err := client.Infer(context.Background(), cliConn, img)
			cliConn.Close()
			<-done
			if err != nil {
				errs <- err
				return
			}
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-2 {
					errs <- fmt.Errorf("logit %d: %g want %g under concurrent evaluation", j, got[j], want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err, ok := <-errs; ok {
		t.Fatal(err)
	}
	if fx.server.Served() != requests {
		t.Fatalf("served %d of %d", fx.server.Served(), requests)
	}
	st := fx.server.PoolStats()
	if st.Workers != 3 {
		t.Fatalf("pool workers = %d, want 3", st.Workers)
	}
	if st.Dispatched+st.Inline == 0 {
		t.Fatal("pool never executed an item")
	}
	if st.Busy != 0 {
		t.Fatalf("pool quiescent but busy=%d", st.Busy)
	}
}

// TestWorkersSerialAndParallelAgree: the same request evaluated by a
// Workers=1 server and a Workers=4 server must produce byte-identical
// response ciphertexts — the serving-layer form of the determinism
// guarantee. Identical key/encryption seeds make the full exchange
// deterministic.
func TestWorkersSerialAndParallelAgree(t *testing.T) {
	run := func(workers int) string {
		fx := newWorkersFixture(t, workers)
		cliConn, srvConn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer srvConn.Close()
			fx.server.Handle(srvConn)
		}()
		resp := make(chan string, 1)
		go func() {
			// Read the raw response so the comparison is at the byte level.
			var status [1]byte
			if _, err := cliConn.Read(status[:]); err != nil || status[0] != byte(StatusOK) {
				resp <- "bad status"
				return
			}
			ct, err := ckks.ReadCiphertext(cliConn, fx.params)
			if err != nil {
				resp <- "read: " + err.Error()
				return
			}
			resp <- ct.Digest()
		}()
		client := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 41)
		if _, err := writeRequest(cliConn, header{}, client.encryptRequest(randomImage(7))); err != nil {
			t.Fatal(err)
		}
		d := <-resp
		cliConn.Close()
		<-done
		return d
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("response digest differs: serial %s parallel %s", serial, parallel)
	}
}
