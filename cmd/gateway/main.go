// Command gateway runs the stateless multi-tenant front door of a
// sharded evaluator fleet: it peeks each request's tenant routing frame,
// picks the tenant's home shard on a consistent-hash ring, and splices
// bytes between client and shard without ever parsing a ciphertext.
// Tenant state (keys, compiled network, warmed plaintext cache) lives on
// the shards — run any number of gateways in front of the same fleet.
//
// Shards are named endpoints (-shards name=addr,...); each has a breaker
// (-breaker-threshold, -breaker-cooldown) that failed exchanges trip —
// an unreachable shard, or one that tears or corrupts its response — and
// requests re-route deterministically to the tenant's next shard in ring
// order. When no shard answers, clients get a typed busy refusal in
// the protocol's own vocabulary, so their normal backoff applies.
//
// SIGINT/SIGTERM closes the listener and tears down active splices.
// -metrics-addr serves the gateway's routing counters (Prometheus text
// at /metrics, JSON at /metrics.json).
//
// Usage:
//
//	gateway -addr 127.0.0.1:7200 -shards a=127.0.0.1:7100,b=127.0.0.1:7101
//	gateway -shards a=10.0.0.2:7100 -breaker-threshold 5 -breaker-cooldown 10s
//	gateway -addr 127.0.0.1:7200 -shards a=127.0.0.1:7100 -metrics-addr 127.0.0.1:7290
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fxhenn/internal/gateway"
	"fxhenn/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	shardList := flag.String("shards", "", "comma-separated name=addr evaluator shards (required)")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "client/shard deadline and shard dial budget")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failed exchanges that open a shard's breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker rejects before allowing a probe")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address (empty disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for active splices")
	flag.Parse()

	shards, err := parseShards(*shardList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shards: %v\n", err)
		os.Exit(2)
	}
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "at least one -shards name=addr entry is required")
		os.Exit(2)
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	gw := gateway.New(gateway.Config{
		IOTimeout:        *ioTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Metrics:          reg,
	}, shards...)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("gateway: %s fronting %d shards %v\n", l.Addr(), len(shards), gw.Shards())

	if reg != nil {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gateway: metrics on http://%s/metrics\n", ml.Addr())
		go func() {
			if err := http.Serve(ml, telemetry.NewMux(reg)); err != nil {
				fmt.Fprintf(os.Stderr, "gateway: metrics server stopped: %v\n", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("gateway: received %v, shutting down\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "gateway: serve failed: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gateway: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("gateway: stopped")
}

// parseShards turns "a=host:port,b=host:port" into the shard set.
func parseShards(s string) ([]gateway.Shard, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []gateway.Shard
	seen := map[string]bool{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, addr, ok := strings.Cut(entry, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("entry %q is not name=addr", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate shard name %q", name)
		}
		seen[name] = true
		out = append(out, gateway.Shard{Name: name, Addr: addr})
	}
	return out, nil
}
