package registry

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestBatchWindow pins the WindowMS-to-duration conversion the batch
// scheduler consumes.
func TestBatchWindow(t *testing.T) {
	if w := (Batch{Size: 2, WindowMS: 5}).Window(); w != 5*time.Millisecond {
		t.Fatalf("window %v, want 5ms", w)
	}
	if w := (Batch{}).Window(); w != 0 {
		t.Fatalf("zero batch window %v, want 0", w)
	}
}

// TestMutationValidation pins the typed refusals on the mutation API:
// invalid quota and model names are ErrInvalid, absent tenants are
// ErrNotFound — never a silent no-op.
func TestMutationValidation(t *testing.T) {
	r := New(NewMemStore())
	if err := r.Register(Record{Tenant: "a", Model: "tiny", KeySeed: 1}); err != nil {
		t.Fatal(err)
	}

	if _, err := r.SetQuota("a", Quota{MaxConcurrent: -1}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative quota: %v, want ErrInvalid", err)
	}
	if _, err := r.SetQuota("ghost", Quota{MaxConcurrent: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quota on absent tenant: %v, want ErrNotFound", err)
	}
	if _, err := r.UpdateModel("a", "", 1, false); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty model: %v, want ErrInvalid", err)
	}
	long := make([]byte, MaxNameBytes+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := r.UpdateModel("a", string(long), 1, false); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversize model: %v, want ErrInvalid", err)
	}
	if _, err := r.UpdateModel("ghost", "tiny", 1, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("model update on absent tenant: %v, want ErrNotFound", err)
	}
	if _, err := r.Rotate("ghost", 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rotate on absent tenant: %v, want ErrNotFound", err)
	}
	if err := r.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of absent tenant: %v, want ErrNotFound", err)
	}
	// The failed mutations must not have bumped the generation.
	rec, err := r.Lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 1 {
		t.Fatalf("generation %d after refused mutations, want 1", rec.Generation)
	}
}

// TestFileStoreFlushFailureRollsBack: when the atomic replace cannot even
// create its temp file, Put and Delete report the error and leave the
// in-memory map exactly as it was — memory and disk keep agreeing.
func TestFileStoreFlushFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFileStore(filepath.Join(dir, "reg.json"))
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Tenant: "a", Model: "tiny", KeySeed: 1, Generation: 1}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}

	// Point the store at an unreachable path: every flush now fails.
	st.path = filepath.Join(dir, "gone", "reg.json")

	if err := st.Put(Record{Tenant: "b", Model: "tiny", KeySeed: 2, Generation: 1}); err == nil {
		t.Fatal("Put succeeded with an unwritable path")
	}
	if _, err := st.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed Put left %v in memory", err)
	}

	updated := rec
	updated.KeySeed = 99
	if err := st.Put(updated); err == nil {
		t.Fatal("overwrite Put succeeded with an unwritable path")
	}
	got, err := st.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got.KeySeed != 1 {
		t.Fatalf("failed overwrite left KeySeed %d, want the original 1", got.KeySeed)
	}

	if err := st.Delete("a"); err == nil {
		t.Fatal("Delete succeeded with an unwritable path")
	}
	if _, err := st.Get("a"); err != nil {
		t.Fatalf("failed Delete removed the record: %v", err)
	}
	if err := st.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of absent tenant: %v, want ErrNotFound", err)
	}
}

// TestOpenFileStoreUnreadable: a path that exists but cannot be read as
// a file is a typed error, never a silently empty registry.
func TestOpenFileStoreUnreadable(t *testing.T) {
	if _, err := OpenFileStore(t.TempDir()); err == nil {
		t.Fatal("opening a directory as a registry succeeded")
	}
}
