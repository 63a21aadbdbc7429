// Package registry is the fleet's tenant key/model registry: the
// persistent source of truth a gateway and its evaluator shards consult
// to answer "which model does tenant T run, under which key material,
// and at which generation?". One process with one implicit tenant cannot
// serve millions of users; the registry is what lets a stateless gateway
// route by tenant and lets any shard materialize a tenant's serving
// state — compiled network, evaluation keys, admission quota — on
// demand, deterministically, from a small record.
//
// A Record never carries raw key material. Key generation in this
// reproduction is seeded and deterministic (ckks.NewKeyGenerator), so
// the record stores the seeds and compile options; the client and every
// shard derive bit-identical key sets from them independently. Rotating
// a tenant's keys or updating its model bumps the record's Generation,
// and serving layers key their per-tenant caches (compiled networks,
// warmed plaintexts) by that generation, so a stale cache can never
// serve traffic for a rotated tenant.
//
// Storage sits behind the Store interface with two implementations: the
// in-memory MemStore for tests and single-process fleets, and the
// on-disk FileStore (versioned JSON envelope, atomic replace-on-write)
// for registries that must survive a restart. Corrupt or truncated
// registry files surface as typed ErrCorrupt errors — never a panic,
// never a silently empty registry.
package registry

import (
	"errors"
	"fmt"
	"sync"
)

// Typed registry errors. Serving layers map these onto wire statuses
// (an unknown tenant becomes a typed refusal, not a hang or a panic).
var (
	// ErrNotFound: the tenant has no record.
	ErrNotFound = errors.New("registry: tenant not found")
	// ErrExists: Register refused to overwrite an existing record.
	ErrExists = errors.New("registry: tenant already registered")
	// ErrCorrupt: the persistent form could not be decoded — wrong
	// envelope, truncated file, invalid field. The store refuses to
	// guess; the operator gets the underlying cause.
	ErrCorrupt = errors.New("registry: corrupt registry data")
	// ErrInvalid: the record itself is unusable (empty tenant, oversized
	// names, unknown model) and was refused before reaching the store.
	ErrInvalid = errors.New("registry: invalid record")
)

// MaxNameBytes caps tenant and model identifiers, matching the wire
// routing frame's field caps so a registered tenant is always routable.
const MaxNameBytes = 128

// Quota bounds one tenant's admission on a shard. The zero value means
// unlimited: the tenant competes only under the server-wide limits.
type Quota struct {
	// MaxConcurrent caps the tenant's simultaneous evaluations on one
	// shard; requests beyond it are refused with a typed busy status.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
}

// Record is one tenant's registration: everything a shard needs to
// materialize the tenant's serving state, and everything a client needs
// to derive the matching key set.
type Record struct {
	// Tenant is the routing identity; non-empty, at most MaxNameBytes.
	Tenant string `json:"tenant"`
	// Model names the network profile ("tiny", "tinyconv", "mnist");
	// the serving layer owns the catalog.
	Model string `json:"model"`
	// WeightSeed initializes the model weights deterministically.
	WeightSeed int64 `json:"weight_seed"`
	// KeySeed seeds the tenant's key ceremony. Rotate assigns a fresh
	// seed and bumps Generation.
	KeySeed int64 `json:"key_seed"`
	// BSGS selects the tenant's compile mode.
	BSGS bool `json:"bsgs,omitempty"`
	// Generation is bumped by every mutation (Rotate, Delete).
	// Serving caches key compiled networks and warmed plaintexts by it.
	Generation uint64 `json:"generation"`
	// Quota bounds the tenant's per-shard admission.
	Quota Quota `json:"quota,omitempty"`
}

// Validate reports whether the record can be registered and routed.
func (r Record) Validate() error {
	if r.Tenant == "" {
		return fmt.Errorf("%w: empty tenant", ErrInvalid)
	}
	if len(r.Tenant) > MaxNameBytes {
		return fmt.Errorf("%w: tenant name %d bytes exceeds cap %d", ErrInvalid, len(r.Tenant), MaxNameBytes)
	}
	if r.Model == "" {
		return fmt.Errorf("%w: empty model", ErrInvalid)
	}
	if len(r.Model) > MaxNameBytes {
		return fmt.Errorf("%w: model name %d bytes exceeds cap %d", ErrInvalid, len(r.Model), MaxNameBytes)
	}
	if r.Quota.MaxConcurrent < 0 {
		return fmt.Errorf("%w: negative quota", ErrInvalid)
	}
	return nil
}

// Store is the persistence seam under a Registry. Implementations must
// be safe for concurrent use; the Registry additionally serializes
// read-modify-write cycles, so a Store only needs atomic single calls.
type Store interface {
	// Put creates or replaces the record keyed by rec.Tenant.
	Put(rec Record) error
	// Get returns the record for tenant, or ErrNotFound.
	Get(tenant string) (Record, error)
	// Delete removes tenant's record; deleting an absent tenant returns
	// ErrNotFound.
	Delete(tenant string) error
	// List returns every record, in unspecified order.
	List() ([]Record, error)
}

// Registry wraps a Store with generation management and change
// notification. All mutations flow through it so generations are
// monotonic per tenant even under concurrent rotate/update races.
type Registry struct {
	mu    sync.Mutex
	store Store
	subs  []func(tenant string, gen uint64)
}

// New builds a registry over store.
func New(store Store) *Registry { return &Registry{store: store} }

// Subscribe registers fn to run after every successful mutation of a
// tenant (register, rotate, model update, delete — delete notifies with
// the deleted record's generation + 1). Serving layers use this to
// invalidate per-tenant caches. fn runs with the registry lock held, so
// it must not call back into the registry.
func (r *Registry) Subscribe(fn func(tenant string, gen uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, fn)
}

func (r *Registry) notify(tenant string, gen uint64) {
	for _, fn := range r.subs {
		fn(tenant, gen)
	}
}

// Register creates a new tenant record at generation 1. Registering an
// existing tenant fails with ErrExists — use Rotate to mutate.
func (r *Registry) Register(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.store.Get(rec.Tenant); err == nil {
		return fmt.Errorf("%w: %q", ErrExists, rec.Tenant)
	} else if !errors.Is(err, ErrNotFound) {
		return err
	}
	rec.Generation = 1
	if err := r.store.Put(rec); err != nil {
		return err
	}
	r.notify(rec.Tenant, rec.Generation)
	return nil
}

// Lookup returns the current record for tenant.
func (r *Registry) Lookup(tenant string) (Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Get(tenant)
}

// List returns every registered record.
func (r *Registry) List() ([]Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.List()
}

// Rotate assigns the tenant a fresh key seed and bumps its generation:
// every shard-side cache keyed by the old generation goes stale
// atomically, and clients deriving keys from the old seed are refused by
// level/shape validation rather than silently decrypting garbage.
func (r *Registry) Rotate(tenant string, newKeySeed int64) (Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, err := r.store.Get(tenant)
	if err != nil {
		return Record{}, err
	}
	rec.KeySeed = newKeySeed
	rec.Generation++
	if err := r.store.Put(rec); err != nil {
		return Record{}, err
	}
	r.notify(rec.Tenant, rec.Generation)
	return rec, nil
}

// Delete removes the tenant. Subscribers hear generation+1 so caches
// keyed by any historical generation invalidate.
func (r *Registry) Delete(tenant string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, err := r.store.Get(tenant)
	if err != nil {
		return err
	}
	if err := r.store.Delete(tenant); err != nil {
		return err
	}
	r.notify(tenant, rec.Generation+1)
	return nil
}

// MemStore is the in-memory Store: a mutex-guarded map. The zero value
// is not usable; construct with NewMemStore.
type MemStore struct {
	mu   sync.RWMutex
	recs map[string]Record
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{recs: make(map[string]Record)} }

// Put implements Store.
func (m *MemStore) Put(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs[rec.Tenant] = rec
	return nil
}

// Get implements Store.
func (m *MemStore) Get(tenant string) (Record, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec, ok := m.recs[tenant]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, tenant)
	}
	return rec, nil
}

// Delete implements Store.
func (m *MemStore) Delete(tenant string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.recs[tenant]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, tenant)
	}
	delete(m.recs, tenant)
	return nil
}

// List implements Store.
func (m *MemStore) List() ([]Record, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Record, 0, len(m.recs))
	for _, rec := range m.recs {
		out = append(out, rec)
	}
	return out, nil
}
