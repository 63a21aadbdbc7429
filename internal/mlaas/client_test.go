package mlaas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
)

// exchange is one request's part of an exchange on c: borrow a row
// list, encrypt and write img to w, return the list.
func exchange(t *testing.T, c *Client, w io.Writer, img *cnn.Tensor) {
	c.takeRows()
	defer c.giveRows()
	if _, err := c.send(w, header{}, img); err != nil {
		t.Fatal(err)
	}
}

// TestClientRequestBytesIndependentOfRows: two clients with the same
// encryptor seed write byte-identical requests for the same images in
// the same order, one through borrowed row lists that are warm and dirty
// (a list of random words first, then the rows earlier requests gave
// back), the other on fresh rows each time. The bytes are pinned by
// digest too: a request's rows never change a bit of it.
func TestClientRequestBytesIndependentOfRows(t *testing.T) {
	fx := newFixture(t)
	warm := NewClient(fx.params, fx.henet, fx.pk, fx.sk, 41)
	rng := rand.New(rand.NewSource(1))
	for range 400 {
		row := make([]uint64, fx.params.N())
		for j := range row {
			row[j] = rng.Uint64()
		}
		warm.rows.RecycleRow(row)
	}
	warm.giveRows() // the next exchange takes this list

	want := []string{
		"73b44ffa6c89963295e2b9b6a7740cde27ee4d58781dc7e976f0449aa3d50aa2",
		"224b5d6d3569e635b4fbb5dd5c743693f956d280208db61e5e2832d0d1e22d26",
		"fbcd356551deb318595d9153f4613e19d8e1f7742a84e42acdc9b04f667b2430",
	}
	for i, digest := range want {
		img := randomImage(int64(i + 1))
		var fresh, reused bytes.Buffer
		if _, err := writeRequest(&fresh, header{}, fx.client.encryptRequest(img)); err != nil {
			t.Fatal(err)
		}
		exchange(t, warm, &reused, img)
		if !bytes.Equal(reused.Bytes(), fresh.Bytes()) {
			t.Fatalf("request %d: the warm client's bytes differ from the fresh client's", i)
		}
		if sum := sha256.Sum256(fresh.Bytes()); hex.EncodeToString(sum[:]) != digest {
			t.Errorf("request %d: digest %x, want %s", i, sum, digest)
		}
	}
}

// TestClientRequestReusesRows: once the idle lists are warm, a client's
// request — borrow a list, pack, encode, encrypt, write, return the list
// — allocates no row and no slot vector: a fixed number of small headers
// per position and one row of wire bytes per request. Two clients taking
// turns borrow one list between them. The clients are on a ring of
// their own, with no worker pool, so the count does not depend on
// GOMAXPROCS.
func TestClientRequestReusesRows(t *testing.T) {
	fx := newFixture(t)
	params := ckks.NewParameters(8, 30, 7, 45)
	c := NewClient(params, fx.henet, fx.pk, fx.sk, 41)
	other := NewClient(params, fx.henet, fx.pk, fx.sk, 42)
	img := randomImage(5)
	send := func() { exchange(t, c, io.Discard, img) }
	send() // warm a list
	idle := len(exchangeRows.idle[params.N()])
	exchange(t, other, io.Discard, img)
	send()
	if n := len(exchangeRows.idle[params.N()]); n != idle {
		t.Fatalf("two clients taking turns left %d idle lists, one client %d", n, idle)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, send)
	runtime.ReadMemStats(&after)
	bytesPerRequest := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)

	positions := len(fx.henet.PackInput(img))
	rowBytes := 8 * params.N()
	if maxAllocs := 22 * positions; allocs > float64(maxAllocs) {
		t.Errorf("a warm request allocates %.0f times, want at most %d (22 per position)", allocs, maxAllocs)
	}
	// One ciphertext's rows are 2·levels rows; a request that allocated
	// even one plaintext's rows per position would exceed this.
	if maxBytes := 2 * rowBytes * positions; bytesPerRequest > float64(maxBytes) {
		t.Errorf("a warm request allocates %.0f bytes, want at most %d (two rows per position)", bytesPerRequest, maxBytes)
	}
	t.Logf("warm request: %.0f allocations, %.0f bytes, %d positions", allocs, bytesPerRequest, positions)
}
