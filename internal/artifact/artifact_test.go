package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fxhenn/internal/experiments"
)

var (
	envOnce sync.Once
	testEnv *experiments.Env
)

func getEnv(t testing.TB) *experiments.Env {
	t.Helper()
	envOnce.Do(func() { testEnv = experiments.NewEnv() })
	return testEnv
}

// skeleton builds a minimal document carrying one marker pair per
// catalog experiment, with stale bodies.
func skeleton() []byte {
	var b bytes.Buffer
	b.WriteString("# doc\n\nprose stays\n\n")
	for _, exp := range experiments.Catalog() {
		b.WriteString(beginMarker(exp.Slug) + "\nSTALE\n" + endMarker(exp.Slug) + "\n\nmore prose\n\n")
	}
	return b.Bytes()
}

func TestRegenerateDocReplacesEveryBody(t *testing.T) {
	e := getEnv(t)
	out, err := RegenerateDoc(skeleton(), e)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte("STALE")) {
		t.Fatal("stale body survived regeneration")
	}
	if !bytes.Contains(out, []byte("prose stays")) || !bytes.Contains(out, []byte("more prose")) {
		t.Fatal("prose outside markers was disturbed")
	}
	for _, exp := range experiments.Catalog() {
		sec := section(out, exp.Slug)
		if len(sec) == 0 {
			t.Fatalf("%s: markers lost", exp.Slug)
		}
		if !bytes.Contains(sec, []byte("|")) {
			t.Fatalf("%s: no markdown table between markers", exp.Slug)
		}
	}
	// Idempotent: regenerating the regenerated document is a fixpoint.
	again, err := RegenerateDoc(out, e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, again) {
		t.Fatal("regeneration is not idempotent")
	}
}

func TestRegenerateDocErrors(t *testing.T) {
	e := getEnv(t)
	if _, err := RegenerateDoc([]byte("no markers at all"), e); err == nil {
		t.Fatal("missing markers not reported")
	}
	doc := skeleton()
	broken := bytes.Replace(doc, []byte(endMarker("table-i")), nil, 1)
	if _, err := RegenerateDoc(broken, e); err == nil || !strings.Contains(err.Error(), "not closed") {
		t.Fatalf("unclosed marker: err = %v", err)
	}
	unknown := append(append([]byte(nil), doc...), []byte("\n<!-- artifact:bogus-slug -->\n<!-- /artifact:bogus-slug -->\n")...)
	if _, err := RegenerateDoc(unknown, e); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown slug: err = %v", err)
	}
	dup := append(append([]byte(nil), doc...), section(doc, "table-i")...)
	if _, err := RegenerateDoc(dup, e); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate marker: err = %v", err)
	}
}

func TestDriftNamesTheChangedSection(t *testing.T) {
	e := getEnv(t)
	current, err := RegenerateDoc(skeleton(), e)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := Drift(current, e); err != nil || d != nil {
		t.Fatalf("current doc reported drifted: %v, %v", d, err)
	}
	tampered := bytes.Replace(current, []byte("KeySwitch"), []byte("KeySwap"), 1)
	d, err := Drift(tampered, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 || d[0] != "table-i" {
		t.Fatalf("drift = %v, want [table-i]", d)
	}
}

func TestWriteBundleDeterministic(t *testing.T) {
	e := getEnv(t)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := WriteBundle(e, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteBundle(e, b); err != nil {
		t.Fatal(err)
	}
	for _, exp := range experiments.Catalog() {
		p := filepath.Join("csv", exp.Slug+".csv")
		fa, err := os.ReadFile(filepath.Join(a, p))
		if err != nil {
			t.Fatalf("%s: %v", exp.Slug, err)
		}
		if len(fa) == 0 || !bytes.Contains(fa, []byte(",")) {
			t.Fatalf("%s: empty or commaless CSV", exp.Slug)
		}
		fb, _ := os.ReadFile(filepath.Join(b, p))
		if !bytes.Equal(fa, fb) {
			t.Fatalf("%s: bundle not deterministic", exp.Slug)
		}
	}
	for _, name := range []string{"tables.md", "tables.tex", "MANIFEST.json"} {
		fa, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := os.ReadFile(filepath.Join(b, name))
		if !bytes.Equal(fa, fb) {
			t.Fatalf("%s differs across runs", name)
		}
	}
	md, _ := os.ReadFile(filepath.Join(a, "tables.md"))
	tex, _ := os.ReadFile(filepath.Join(a, "tables.tex"))
	for _, want := range []string{"table-vii", "fig-10", "packing"} {
		if !bytes.Contains(md, []byte(want)) {
			t.Fatalf("tables.md missing %s section", want)
		}
	}
	if n := bytes.Count(tex, []byte(`\begin{table}`)); n != len(experiments.Catalog()) {
		t.Fatalf("tables.tex has %d table environments, want %d", n, len(experiments.Catalog()))
	}
	man, _ := os.ReadFile(filepath.Join(a, "MANIFEST.json"))
	if !bytes.Contains(man, []byte(`"schema_version": 2`)) || !bytes.Contains(man, []byte(`"table-ix"`)) {
		t.Fatalf("manifest malformed:\n%s", man)
	}
}
