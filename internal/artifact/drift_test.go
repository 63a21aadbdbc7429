package artifact

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentsDocCurrent is the tier-1 drift gate: the generated
// table bodies committed in EXPERIMENTS.md must match a fresh
// regeneration from the experiment catalog. When this fails, either a
// model or table builder changed without the docs, or the document was
// hand-edited inside the markers — run
//
//	go run ./cmd/artifact -update-experiments
//
// and commit the result.
func TestExperimentsDocCurrent(t *testing.T) {
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	drifted, err := Drift(doc, getEnv(t))
	if err != nil {
		t.Fatalf("document structure: %v", err)
	}
	if len(drifted) > 0 {
		t.Fatalf("EXPERIMENTS.md table bodies drifted from the generators: %v\n"+
			"run `go run ./cmd/artifact -update-experiments` and commit the result", drifted)
	}
}
