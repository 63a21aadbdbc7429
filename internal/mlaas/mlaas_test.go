package mlaas

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
)

type fixture struct {
	params ckks.Parameters
	pnet   *cnn.Network
	henet  *hecnn.Network
	server *Server
	client *Client
	pk     *ckks.PublicKey
	sk     *ckks.SecretKey
	rlk    *ckks.RelinearizationKey
	rtk    *ckks.RotationKeys
}

func newFixture(t testing.TB) *fixture {
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
		server: NewServerWithConfig(params, henet, rlk, rtk, Config{}),
		client: NewClient(params, henet, pk, sk, 41),
		pk:     pk,
		sk:     sk,
		rlk:    rlk,
		rtk:    rtk,
	}
}

// ctDigest returns the hex SHA-256 of ct's serialized form: equal digests
// mean bit-identical ciphertexts.
func ctDigest(ct *ckks.Ciphertext) string {
	h := sha256.New()
	if _, err := ct.WriteTo(h); err != nil {
		panic(err) // hash.Hash never errors on Write
	}
	return hex.EncodeToString(h.Sum(nil))
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

func randomImage(seed int64) *cnn.Tensor {
	img := cnn.NewTensor(1, 8, 8)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	return img
}

// TestInferenceOverPipe runs the full protocol over an in-memory duplex
// connection: the client's decrypted logits must match plaintext inference.
func TestInferenceOverPipe(t *testing.T) {
	fx := newFixture(t)
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvConn.Close()
		fx.server.Handle(srvConn)
	}()

	img := randomImage(1)
	want := fx.pnet.Infer(img)
	got, err := fx.client.Infer(context.Background(), cliConn, img)
	cliConn.Close()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs %g", i, got[i], want[i])
		}
	}
	if fx.server.Served() != 1 {
		t.Fatalf("served = %d", fx.server.Served())
	}
}

// TestInferenceOverTCP exercises a real localhost TCP round trip with
// multiple sequential clients.
func TestInferenceOverTCP(t *testing.T) {
	fx := newFixture(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go fx.server.Serve(l) //nolint:errcheck

	for seed := int64(2); seed < 5; seed++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		img := randomImage(seed)
		want := fx.pnet.Infer(img)
		got, err := fx.client.Infer(context.Background(), conn, img)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cnn.Argmax(got) != cnn.Argmax(want) {
			t.Fatalf("seed %d: argmax mismatch", seed)
		}
	}
	if fx.server.Served() != 3 {
		t.Fatalf("served = %d", fx.server.Served())
	}
}

// TestTrafficAccounting: the client reports the ciphertext expansion that
// motivates the paper (raw image bytes vs encrypted wire bytes).
func TestTrafficAccounting(t *testing.T) {
	fx := newFixture(t)
	cliConn, srvConn := net.Pipe()
	go func() {
		defer srvConn.Close()
		fx.server.Handle(srvConn)
	}()
	img := randomImage(9)
	if _, err := fx.client.Infer(context.Background(), cliConn, img); err != nil {
		t.Fatal(err)
	}
	cliConn.Close()

	rawBytes := int64(len(img.Data) * 8)
	if fx.client.BytesSent < rawBytes*100 {
		t.Fatalf("expansion only %dX — ciphertexts should dominate", fx.client.BytesSent/rawBytes)
	}
	// Sent = 4 + nPos ciphertexts at level 7.
	conv := fx.henet.Layers[0].(*hecnn.ConvPacked)
	perCT := 2*7*fx.params.N()*8 + 10 + 2*8 // two level-7 polys + ciphertext and poly headers
	want := int64(4 + conv.NumPositions()*perCT)
	if fx.client.BytesSent != want {
		t.Fatalf("BytesSent %d want %d", fx.client.BytesSent, want)
	}
	if fx.client.BytesReceived <= 0 {
		t.Fatal("no response bytes accounted")
	}
}

// rwPair joins separate read and write buffers into an io.ReadWriter.
type rwPair struct {
	r *bytes.Buffer
	w *bytes.Buffer
}

func (p rwPair) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p rwPair) Write(b []byte) (int, error) { return p.w.Write(b) }

// TestServerErrorReachesClient: the error path round-trips to the client as
// a readable message.
func TestServerErrorReachesClient(t *testing.T) {
	fx := newFixture(t)
	var req, resp bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 2)
	req.Write(hdr[:])
	fx.server.Handle(rwPair{&req, &resp})

	if resp.Len() == 0 || resp.Bytes()[0] != 1 {
		t.Fatalf("expected error status, got % x", resp.Bytes())
	}
	if fx.server.Served() != 0 {
		t.Fatal("failed request counted as served")
	}
}
