package mlaas

import (
	"context"
	"io"
	"sync"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/telemetry"
)

// Client packs, encrypts, ships, and decrypts. It owns the secret key.
type Client struct {
	params    ckks.Parameters
	net       *hecnn.Network
	encoder   *ckks.Encoder
	encryptor *ckks.Encryptor
	decryptor *ckks.Decryptor

	// Timeout is the rolling per-read/per-write deadline applied when the
	// connection supports deadlines (0 disables). A context deadline on
	// Infer additionally caps the whole exchange.
	Timeout time.Duration

	// FrameCheck opts the client into CRC-framed responses (wire.go):
	// requests ask for a CRC32 trailer and success responses must carry a
	// matching one, turning silently corrupted logits into a typed,
	// retryable ErrFrameCorrupt. Servers predating the framing refuse the
	// magic with a typed bad-request, so leave this off when talking to
	// old servers.
	FrameCheck bool

	// Tenant, when set, prefixes every request with the tenant routing
	// frame: the gateway routes it to the tenant's home shard and a
	// multi-tenant server resolves this tenant's keys, network, and
	// quota. Leave empty to be served by the server's default runtime.
	Tenant string
	// TenantGeneration, when non-zero, pins the registry generation this
	// client's key material derives from; a server whose registry has
	// rotated past it refuses the request instead of returning logits the
	// client cannot decrypt.
	TenantGeneration uint64

	// BytesSent / BytesReceived accumulate wire traffic; Retries counts
	// extra attempts performed by InferRetry and InferHedged; Hedges
	// counts hedged second attempts InferHedged fired.
	BytesSent     int64
	BytesReceived int64
	Retries       int
	Hedges        int

	// Flight, when non-nil, enables client-side tracing: every
	// Infer/InferRetry/InferHedged call runs under a root span whose
	// trace context is propagated over the wire, with one child span per
	// attempt tagged endpoint/breaker-state/hedge. Nil keeps wire bytes
	// and the request path byte-identical to the untraced client.
	Flight *telemetry.FlightRecorder
	// cm holds the pre-resolved client metric handles (SetMetrics).
	cm *clientMetrics

	// Failover state (failover.go): per-endpoint circuit breakers and the
	// latency window behind the quantile-derived hedge delay. Guarded by
	// foMu; lazily initialized on the first InferHedged call.
	foMu       sync.Mutex
	foBreakers map[string]*Breaker
	foLat      latencyWindow
}

// NewClient builds the client side from the key material.
func NewClient(params ckks.Parameters, henet *hecnn.Network, pk *ckks.PublicKey, sk *ckks.SecretKey, seed int64) *Client {
	return &Client{
		params:    params,
		net:       henet,
		encoder:   ckks.NewEncoder(params),
		encryptor: ckks.NewEncryptor(params, pk, seed),
		decryptor: ckks.NewDecryptor(params, sk),
		Timeout:   30 * time.Second,
	}
}

// Infer runs one encrypted inference over the connection and returns the
// decrypted logits. The context's deadline bounds the whole exchange;
// failures before any response byte arrive as *TransportError with
// Partial=false (safe to retry on a fresh connection), failures after as
// Partial=true, and typed server refusals as *StatusError.
func (c *Client) Infer(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor) ([]float64, error) {
	sp := c.startClientTrace("infer")
	logits, err := c.inferSpan(ctx, conn, img, sp)
	recordClientTrace(c.Flight, sp, err)
	return logits, err
}

// inferSpan is Infer under an optional span: the span's context rides
// the wire ahead of the request, so the server's trace joins the
// client's. A nil span keeps the exchange byte-identical to the
// untraced protocol.
func (c *Client) inferSpan(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor, sp *telemetry.Span) ([]float64, error) {
	if err := c.net.ValidateInput(img); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dl, _ := ctx.Deadline()
	trw := newTimedRW(conn, c.Timeout, dl)
	h := c.header(sp)
	sent, err := writeRequest(trw, h, c.encryptRequest(img))
	c.BytesSent += sent
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	resp, recv, err := readResponse(trw, c.params, h, 1)
	c.BytesReceived += recv
	if err != nil {
		return nil, err
	}
	return c.decodeLogits(resp.cts[0]), nil
}

// header is the request header this client writes under span sp.
func (c *Client) header(sp *telemetry.Span) header {
	return header{trace: sp.Context(), route: RouteHeader{c.Tenant, c.TenantGeneration}, crc: c.FrameCheck}
}

// encryptRequest packs and encrypts the image into the per-position
// ciphertexts of one request. The encryptor's randomness advances once
// per call, so re-sending the returned ciphertexts (retry, hedge,
// failover) reproduces the exchange bit-for-bit.
func (c *Client) encryptRequest(img *cnn.Tensor) []*ckks.Ciphertext {
	return encryptAll(c.params, c.encoder, c.encryptor, c.net.PackInput(img))
}

func encryptAll(params ckks.Parameters, enc *ckks.Encoder, encr *ckks.Encryptor, packed [][]float64) []*ckks.Ciphertext {
	level := params.MaxLevel()
	cts := make([]*ckks.Ciphertext, len(packed))
	for i, v := range packed {
		cts[i] = encr.Encrypt(enc.Encode(v, level, params.Scale))
	}
	return cts
}

// decodeLogits decrypts and decodes the result ciphertext. Not safe for
// concurrent use — callers racing attempts decode only the winner.
func (c *Client) decodeLogits(out *ckks.Ciphertext) []float64 {
	logits := c.encoder.Decode(c.decryptor.Decrypt(out))
	rows := c.net.Layers[len(c.net.Layers)-1].OutElems()
	return logits[:rows]
}

// BatchClient is the client side of cross-request batched serving. It
// owns the secret key of the BATCH ring (a different instantiation from
// the per-request ring — typically hecnn.BatchedParams), packs its image
// position-major with the value in slot 0, and decrypts only its own
// slot of the shared logit ciphertexts the server returns. Other members'
// logits sit in other slots of the same ciphertexts; with a shared batch
// key every member could read them, so a deployment batches mutually
// trusting requests (one tenant), exactly as CryptoNets assumes.
type BatchClient struct {
	params    ckks.Parameters
	net       *hecnn.BatchedNetwork
	encoder   *ckks.Encoder
	encryptor *ckks.Encryptor
	decryptor *ckks.Decryptor

	// Timeout is the rolling per-read/per-write deadline, as Client's.
	Timeout time.Duration

	// FrameCheck opts into CRC-framed responses, as Client's.
	FrameCheck bool

	// Tenant/TenantGeneration route batched requests to the tenant's
	// private batch domain, as Client's fields do for the per-request
	// path. Members of one batch always share a tenant — batching mixes
	// slots within one key domain, never across tenants.
	Tenant           string
	TenantGeneration uint64

	// Flight enables client-side tracing, as Client's: the server's
	// batch-flush span links this request's trace.
	Flight *telemetry.FlightRecorder

	BytesSent     int64
	BytesReceived int64
}

// NewBatchClient builds the batch-ring client from its key material.
func NewBatchClient(params ckks.Parameters, bnet *hecnn.BatchedNetwork, pk *ckks.PublicKey, sk *ckks.SecretKey, seed int64) *BatchClient {
	return &BatchClient{
		params:    params,
		net:       bnet,
		encoder:   ckks.NewEncoder(params),
		encryptor: ckks.NewEncryptor(params, pk, seed),
		decryptor: ckks.NewDecryptor(params, sk),
		Timeout:   30 * time.Second,
	}
}

// Infer runs one batched encrypted inference: the image ships as one
// single-slot ciphertext per tensor position and the logits come back at
// the server-assigned slot of the shared output ciphertexts. The server
// coalesces concurrent calls into one evaluation, so latency includes up
// to one batch window of deliberate waiting.
func (c *BatchClient) Infer(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor) ([]float64, error) {
	var sp *telemetry.Span
	if c.Flight != nil {
		sp = telemetry.StartTrace("batch-infer")
	}
	logits, err := c.inferSpan(ctx, conn, img, sp)
	recordClientTrace(c.Flight, sp, err)
	return logits, err
}

func (c *BatchClient) inferSpan(ctx context.Context, conn io.ReadWriter, img *cnn.Tensor, sp *telemetry.Span) ([]float64, error) {
	packed, err := c.net.PackImage(img)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dl, _ := ctx.Deadline()
	trw := newTimedRW(conn, c.Timeout, dl)
	h := header{trace: sp.Context(), route: RouteHeader{c.Tenant, c.TenantGeneration}, crc: c.FrameCheck, batch: true}
	sent, err := writeRequest(trw, h, encryptAll(c.params, c.encoder, c.encryptor, packed))
	c.BytesSent += sent
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	resp, recv, err := readResponse(trw, c.params, h, c.net.OutputSize())
	c.BytesReceived += recv
	if err != nil {
		return nil, err
	}
	logits := make([]float64, len(resp.cts))
	for i, ct := range resp.cts {
		logits[i] = c.encoder.Decode(c.decryptor.Decrypt(ct))[resp.slot]
	}
	return logits, nil
}
