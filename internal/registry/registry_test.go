package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func rec(tenant string) Record {
	return Record{Tenant: tenant, Model: "tiny", WeightSeed: 1, KeySeed: 2}
}

func TestRegisterLookupGeneration(t *testing.T) {
	r := New(NewMemStore())
	if err := r.Register(rec("alice")); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 {
		t.Fatalf("fresh registration at generation %d, want 1", got.Generation)
	}
	if err := r.Register(rec("alice")); !errors.Is(err, ErrExists) {
		t.Fatalf("re-register: %v, want ErrExists", err)
	}
	if _, err := r.Lookup("nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup missing: %v, want ErrNotFound", err)
	}
}

func TestValidateRefusesBadRecords(t *testing.T) {
	r := New(NewMemStore())
	cases := []Record{
		{Tenant: "", Model: "tiny"},
		{Tenant: "a", Model: ""},
		{Tenant: string(make([]byte, MaxNameBytes+1)), Model: "tiny"},
		{Tenant: "a", Model: string(make([]byte, MaxNameBytes+1))},
		{Tenant: "a", Model: "tiny", Quota: Quota{MaxConcurrent: -1}},
	}
	for i, bad := range cases {
		if err := r.Register(bad); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: %v, want ErrInvalid", i, err)
		}
	}
}

func TestRotateAndUpdateBumpGeneration(t *testing.T) {
	r := New(NewMemStore())
	var mu sync.Mutex
	events := map[string]uint64{}
	r.Subscribe(func(tenant string, gen uint64) {
		mu.Lock()
		events[tenant] = gen
		mu.Unlock()
	})
	if err := r.Register(rec("alice")); err != nil {
		t.Fatal(err)
	}
	rot, err := r.Rotate("alice", 99)
	if err != nil {
		t.Fatal(err)
	}
	if rot.Generation != 2 || rot.KeySeed != 99 {
		t.Fatalf("rotate: gen=%d seed=%d, want gen 2 seed 99", rot.Generation, rot.KeySeed)
	}
	again, err := r.Rotate("alice", 7)
	if err != nil {
		t.Fatal(err)
	}
	if again.Generation != 3 || again.KeySeed != 7 || again.Model != rot.Model {
		t.Fatalf("second rotate: %+v", again)
	}
	if err := r.Delete("alice"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	gen := events["alice"]
	mu.Unlock()
	if gen != 4 {
		t.Fatalf("delete notified generation %d, want 4 (last gen + 1)", gen)
	}
	if _, err := r.Rotate("alice", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rotate after delete: %v, want ErrNotFound", err)
	}
	if err := r.Delete("alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
}

// TestConcurrentRegisterRotateDelete is the registry lifecycle hammer:
// many goroutines register, rotate, and delete overlapping
// tenants. The invariants: no panic, no lost update (a successful
// mutation's generation is strictly greater than the one it read), and
// the final store decodes cleanly.
func TestConcurrentRegisterRotateDelete(t *testing.T) {
	r := New(NewMemStore())
	const tenants = 8
	const workers = 16
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("t%d", (w+i)%tenants)
				switch i % 4 {
				case 0:
					r.Register(rec(name)) //nolint:errcheck // ErrExists races are the point
				case 1:
					if got, err := r.Rotate(name, int64(i)); err == nil && got.Generation < 2 {
						t.Errorf("rotate produced generation %d < 2", got.Generation)
					}
				case 2:
					if got, err := r.Rotate(name, -int64(i)); err == nil && got.Generation < 2 {
						t.Errorf("second rotate produced generation %d < 2", got.Generation)
					}
				case 3:
					r.Delete(name) //nolint:errcheck // ErrNotFound races are the point
				}
			}
		}(w)
	}
	wg.Wait()
	recs, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range recs {
		if err := got.Validate(); err != nil {
			t.Errorf("surviving record %q invalid: %v", got.Tenant, err)
		}
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.json")
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r := New(st)
	if err := r.Register(Record{Tenant: "alice", Model: "tiny", WeightSeed: 3, KeySeed: 4,
		Quota: Quota{MaxConcurrent: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(rec("bob")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rotate("alice", 40); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same file sees exactly the surviving state.
	st2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := st2.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if alice.Generation != 2 || alice.KeySeed != 40 || alice.Quota.MaxConcurrent != 2 {
		t.Fatalf("reloaded record %+v", alice)
	}
	recs, err := st2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("reloaded %d records, want 2", len(recs))
	}
}

func TestFileStoreDeletePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.json")
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(rec("alice")); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("alice"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	st2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Get("alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted record survived reload: %v", err)
	}
}

// TestFileStoreCorruptFiles pins the typed-error contract: every corrupt
// or truncated on-disk form is ErrCorrupt at open, never a panic or a
// silently empty registry.
func TestFileStoreCorruptFiles(t *testing.T) {
	valid, err := EncodeFile([]Record{rec("alice")})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		data []byte
		// mention, when set, must appear in the error: the operator is
		// told which field to fix.
		mention string
	}{
		"truncated-mid-record": {data: valid[:len(valid)/2]},
		"empty-file":           {data: []byte{}},
		"not-json":             {data: []byte("registry? never heard of it")},
		"wrong-version":        {data: []byte(`{"version": 99, "records": []}`)},
		"unknown-field":        {data: []byte(`{"version": 1, "records": [], "extra": true}`)},
		"trailing-garbage":     {data: append(append([]byte{}, valid...), []byte("{}")...)},
		"invalid-record":       {data: []byte(`{"version": 1, "records": [{"tenant": "", "model": "tiny"}]}`)},
		"duplicate-tenant":     {data: []byte(`{"version": 1, "records": [{"tenant": "a", "model": "m"}, {"tenant": "a", "model": "m"}]}`)},
		// The Hoist compile mode was removed; a file that still sets it is
		// refused rather than silently served under the ladder.
		"retired-hoist-field": {data: []byte(`{"version": 1, "records": [{"tenant": "a", "model": "tiny", "hoist": true}]}`), mention: `"hoist"`},
		// The per-tenant batch domain was removed with the batched serve
		// path; a file that still configures one is refused by name.
		"retired-batch-field": {data: []byte(`{"version": 1, "records": [{"tenant": "a", "model": "tiny", "batch": {"size": 4, "window_ms": 20}}]}`), mention: `"batch"`},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "registry.json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenFileStore(path)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("open: %v, want it to name %s", err, tc.mention)
			}
		})
	}
}

// TestFileStoreConcurrent drives the on-disk store through the registry
// under concurrency: the atomic replace-on-write must keep the file
// decodable at every point, which the final reload checks.
func TestFileStoreConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.json")
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r := New(st)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", w%4)
			for i := 0; i < 10; i++ {
				r.Register(rec(name))    //nolint:errcheck
				r.Rotate(name, int64(i)) //nolint:errcheck
				if w%4 == 3 {
					r.Delete(name) //nolint:errcheck
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := OpenFileStore(path); err != nil {
		t.Fatalf("file undecodable after concurrent mutation: %v", err)
	}
}
