package main

import (
	"bufio"
	"context"
	"math"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fxhenn/internal/cnn"
	"fxhenn/internal/mlaas"
	"fxhenn/internal/registry"
)

// TestServerEndToEnd builds the binary, serves one unrouted inference
// from a client derived from the same catalog record as the server's
// flags, then drains it with SIGTERM. It pins that the catalog-built
// default runtime matches a catalog-derived client.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "mlaas-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-net", "tiny", "-seed", "3", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // already exited on the happy path

	// Collect the output; hand the listen address over as soon as it is
	// printed.
	var (
		mu     sync.Mutex
		output strings.Builder
	)
	addrc := make(chan string, 1)
	scanned := make(chan struct{})
	listen := regexp.MustCompile(` on (\S+) \(slots=`)
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			mu.Lock()
			output.WriteString(sc.Text() + "\n")
			mu.Unlock()
			if m := listen.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(time.Minute):
		t.Fatal("server never printed its listen address")
	}

	rec := registry.Record{Model: "tiny", WeightSeed: 3, KeySeed: 3}
	pnet, err := mlaas.StandardPlaintext(rec)
	if err != nil {
		t.Fatal(err)
	}
	client, err := mlaas.StandardTenantClient(rec, 7)
	if err != nil {
		t.Fatal(err)
	}
	client.Tenant, client.TenantGeneration = "", 0
	img := cnn.NewTensor(pnet.InC, pnet.InH, pnet.InW)
	for i := range img.Data {
		img.Data[i] = float64(i%7) / 7
	}
	want := pnet.Infer(img)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	got, err := client.Infer(ctx, conn, img)
	cancel()
	conn.Close()
	if err != nil {
		t.Fatalf("unrouted inference: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Fatalf("logit %d: %g vs plaintext %g", i, got[i], want[i])
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scanned:
	case <-time.After(time.Minute):
		t.Fatal("server did not exit within a minute of SIGTERM")
	}
	err = cmd.Wait()
	mu.Lock()
	out := output.String()
	mu.Unlock()
	if err != nil {
		t.Fatalf("server exit after SIGTERM: %v\n%s", err, out)
	}
	if !strings.Contains(out, "drained; served=1 ") {
		t.Fatalf("no drained line with the inference served:\n%s", out)
	}
}
