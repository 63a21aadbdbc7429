// Example mlaas demonstrates the paper's §I deployment story end to end
// over TCP on localhost: a client encrypts its image locally and ships only
// ciphertexts; the server — holding the model weights and evaluation keys
// but never the secret key — computes the CNN homomorphically and returns
// encrypted logits; the client decrypts. It also exercises the production
// serving layer: concurrency limits with typed busy refusals, backoff
// retries on the client, and a graceful drain at the end, plus the
// ciphertext traffic expansion report that motivates hardware acceleration.
package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"fxhenn"
	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/mlaas"
)

func main() {
	// Reduced geometry keeps the demo interactive; the protocol is
	// identical at N=8192.
	params := ckks.NewParameters(8, 30, 7, 45)
	pnet := cnn.NewTinyNet()
	pnet.InitWeights(123)
	henet := fxhenn.Compile(pnet, params.Slots())

	// Offline setup: the client generates keys and publishes the
	// evaluation keys (relinearization + Galois) to the server.
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rtk := kg.GenRotationKeys(sk, henet.RotationsNeeded(params.MaxLevel()))

	server := mlaas.NewServerWithConfig(params, henet, rlk, rtk, mlaas.Config{
		MaxConcurrent: 2,
		IOTimeout:     10 * time.Second,
		RequestBudget: time.Minute,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go server.Serve(l) //nolint:errcheck
	fmt.Printf("server listening on %s (holds weights + eval keys, no secret key; 2 concurrent slots)\n", l.Addr())

	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", l.Addr().String())
	}

	client := mlaas.NewClient(params, henet, pk, sk, 2)
	for i := 0; i < 3; i++ {
		img := cnn.NewTensor(1, 8, 8)
		rng := rand.New(rand.NewSource(int64(100 + i)))
		for j := range img.Data {
			img.Data[j] = rng.Float64()
		}
		want := pnet.Infer(img)

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		start := time.Now()
		// InferRetry re-dials with capped exponential backoff on busy
		// refusals and pre-response transport failures.
		got, err := client.InferRetry(ctx, dial, img, mlaas.RetryPolicy{Seed: int64(i)})
		cancel()
		if err != nil {
			panic(err)
		}
		worst := 0.0
		for k := range want {
			if d := math.Abs(got[k] - want[k]); d > worst {
				worst = d
			}
		}
		fmt.Printf("inference %d: %v, class %d (plaintext %d), max error %.1e\n",
			i, time.Since(start).Round(time.Millisecond),
			cnn.Argmax(got), cnn.Argmax(want), worst)
	}

	raw := int64(8 * 8 * 8) // the image in cleartext float64s
	fmt.Printf("\ntraffic: %d bytes sent, %d received for %d inferences (%d retries)\n",
		client.BytesSent, client.BytesReceived, server.Served(), client.Retries)
	fmt.Printf("ciphertext expansion vs raw image: %dX (the paper's storage-overhead motivation)\n",
		client.BytesSent/(3*raw))

	// Graceful drain: stop admitting, let in-flight work finish, close.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutCtx); err != nil {
		panic(err)
	}
	st := server.Stats()
	fmt.Printf("drained: served=%d rejected=%d bad=%d panics=%d dropped=%d\n",
		st.Served, st.Rejected, st.BadRequests, st.Panics, st.Dropped)
}
