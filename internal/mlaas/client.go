package mlaas

import (
	"context"
	"io"
	"sync"
	"time"

	"fxhenn/internal/ckks"
	"fxhenn/internal/cnn"
	"fxhenn/internal/hecnn"
	"fxhenn/internal/ring"
	"fxhenn/internal/telemetry"
)

// Client packs, encrypts, ships, and decrypts. It owns the secret key.
//
// A Client is not safe for concurrent use, nor to copy: its encryptor's
// randomness is its own. Each exchange borrows one row list from the
// process's idle lists (exchangeRows), encodes and encrypts into it,
// gives the request's rows back to it once the request is written, and
// returns the list when the exchange ends. A warm list holds one
// request's rows (a plaintext and every ciphertext of a request: 357
// rows, 23.4 MB for MNIST at N = 8192), and a warm exchange allocates no
// row.
type Client struct {
	params    ckks.Parameters
	net       *hecnn.Network
	encoder   *ckks.Encoder // scoped to rows (ckks.Encoder.WithRows)
	encryptor *ckks.Encryptor
	decryptor *ckks.Decryptor
	// rows is the list the current exchange borrowed; empty between
	// exchanges.
	rows ring.Rows

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
	// extra attempts performed by InferRetry.
	BytesSent     int64
	BytesReceived int64
	Retries       int

	// Flight, when non-nil, enables client-side tracing: every
	// Infer/InferRetry call runs under a root span whose trace context is
	// propagated over the wire, with one child span per InferRetry
	// attempt. Nil keeps wire bytes and the request path byte-identical
	// to the untraced client.
	Flight *telemetry.FlightRecorder
}

// NewClient builds the client side from the key material.
func NewClient(params ckks.Parameters, henet *hecnn.Network, pk *ckks.PublicKey, sk *ckks.SecretKey, seed int64) *Client {
	c := &Client{
		params:    params,
		net:       henet,
		encryptor: ckks.NewEncryptor(params, pk, seed),
		decryptor: ckks.NewDecryptor(params, sk),
		Timeout:   30 * time.Second,
	}
	c.encoder = ckks.NewEncoder(params).WithRows(&c.rows)
	return c
}

// Infer runs one encrypted inference over the connection and returns the
// decrypted logits. The context's deadline bounds the whole exchange;
// connection failures arrive as *TransportError (Partial when some
// response bytes had arrived) and typed server refusals as *StatusError.
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
	c.takeRows()
	defer c.giveRows()
	sent, err := c.send(trw, h, img)
	c.BytesSent += sent
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	out, recv, err := readResponse(trw, c.params, h)
	c.BytesReceived += recv
	if err != nil {
		return nil, err
	}
	return c.decodeLogits(out), nil
}

// exchangeRows holds the process's idle row lists, per ring degree. An
// exchange takes one (takeRows) and returns it when it ends (giveRows),
// so the process keeps one request's rows for each exchange it ever had
// in flight at once, however many clients take turns: one list for a
// lone client, one per sender for a load generator whose senders share
// several clients.
var exchangeRows = struct {
	sync.Mutex
	idle map[int][]ring.Rows
}{idle: map[int][]ring.Rows{}}

// takeRows borrows an idle list of the client's ring degree for one
// exchange, or starts an empty one.
func (c *Client) takeRows() {
	exchangeRows.Lock()
	defer exchangeRows.Unlock()
	lists := exchangeRows.idle[c.params.N()]
	if n := len(lists); n > 0 {
		c.rows, lists[n-1] = lists[n-1], ring.Rows{}
		exchangeRows.idle[c.params.N()] = lists[:n-1]
	}
}

// giveRows returns the exchange's list to the idle lists.
func (c *Client) giveRows() {
	exchangeRows.Lock()
	defer exchangeRows.Unlock()
	exchangeRows.idle[c.params.N()] = append(exchangeRows.idle[c.params.N()], c.rows)
	c.rows = ring.Rows{}
}

// header is the request header this client writes under span sp.
func (c *Client) header(sp *telemetry.Span) header {
	return header{trace: sp.Context(), route: RouteHeader{c.Tenant, c.TenantGeneration}, crc: c.FrameCheck}
}

// send encrypts img and writes it as one request under header h, every
// position encrypted before the first write. The request's rows go back
// to the exchange's list once the write returns, whether it succeeded or
// not.
func (c *Client) send(w io.Writer, h header, img *cnn.Tensor) (int64, error) {
	cts := c.encryptRequest(img)
	n, err := writeRequest(w, h, cts)
	for _, ct := range cts {
		for _, p := range ct.Value {
			c.rows.Recycle(p)
		}
	}
	return n, err
}

// encryptRequest packs and encrypts the image into the per-position
// ciphertexts of one request, their rows from the exchange's list. The
// encryptor's randomness advances once per call.
func (c *Client) encryptRequest(img *cnn.Tensor) []*ckks.Ciphertext {
	return encryptAll(c.params, c.encoder, c.encryptor, &c.rows, c.net.PackInput(img))
}

// encryptAll encodes and encrypts each packed vector at the top level.
// Each ciphertext takes its rows from rows, and each plaintext's rows,
// taken by enc, go back to rows right after its Encrypt; with rows nil
// both allocate.
func encryptAll(params ckks.Parameters, enc *ckks.Encoder, encr *ckks.Encryptor, rows *ring.Rows, packed [][]float64) []*ckks.Ciphertext {
	level := params.MaxLevel()
	cts := make([]*ckks.Ciphertext, len(packed))
	for i, v := range packed {
		pt := enc.Encode(v, level, params.Scale)
		cts[i] = encr.EncryptFrom(rows, pt)
		rows.Recycle(pt.Value)
	}
	return cts
}

// decodeLogits decrypts and decodes the result ciphertext.
func (c *Client) decodeLogits(out *ckks.Ciphertext) []float64 {
	logits := c.encoder.Decode(c.decryptor.Decrypt(out))
	rows := c.net.Layers[len(c.net.Layers)-1].OutElems()
	return logits[:rows]
}
