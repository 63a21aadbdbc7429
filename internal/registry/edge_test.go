package registry

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestMutationValidation pins the typed refusals on the mutation API:
// absent tenants are ErrNotFound — never a silent no-op.
func TestMutationValidation(t *testing.T) {
	r := New(NewMemStore())
	if err := r.Register(Record{Tenant: "a", Model: "tiny", KeySeed: 1}); err != nil {
		t.Fatal(err)
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
