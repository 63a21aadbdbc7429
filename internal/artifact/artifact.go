// Package artifact is the engine behind cmd/artifact, the one-command
// paper-artifact runner (DESIGN.md §15). It regenerates every table and
// figure of the paper reproduction from the experiment catalog
// (internal/experiments.Catalog) into a versioned bundle — one CSV per
// experiment plus concatenated markdown and LaTeX — and rewrites the
// marker-bounded table bodies inside EXPERIMENTS.md. Because every
// catalog experiment is model-derived and bit-stable, a tier-1 drift
// test can fail the build whenever the committed document diverges from
// a fresh regeneration.
package artifact

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"fxhenn/internal/experiments"
)

// SchemaVersion names the bundle layout. Bump it when the on-disk
// shape of the bundle (file names, CSV schema, manifest fields)
// changes, so downstream consumers can detect incompatible artifacts.
const SchemaVersion = 2

// beginMarker and endMarker bound one experiment's generated table body
// inside EXPERIMENTS.md. Everything between the markers is owned by the
// artifact runner; everything outside is hand-maintained prose.
func beginMarker(slug string) string { return "<!-- artifact:" + slug + " -->" }
func endMarker(slug string) string   { return "<!-- /artifact:" + slug + " -->" }

var markerRE = regexp.MustCompile(`<!-- /?artifact:([a-z0-9-]+) -->`)

// RegenerateDoc returns doc with every marker-bounded table body
// replaced by a freshly built one. It errors when any catalog slug's
// markers are missing, duplicated, or out of order, and when the
// document carries an artifact marker for a slug the catalog does not
// know — both directions of drift between doc and catalog are loud.
func RegenerateDoc(doc []byte, e *experiments.Env) ([]byte, error) {
	known := make(map[string]bool)
	for _, exp := range experiments.Catalog() {
		known[exp.Slug] = true
	}
	for _, m := range markerRE.FindAllSubmatch(doc, -1) {
		if !known[string(m[1])] {
			return nil, fmt.Errorf("artifact: document references unknown experiment %q", m[1])
		}
	}

	env := e
	out := doc
	for _, exp := range experiments.Catalog() {
		begin, end := []byte(beginMarker(exp.Slug)), []byte(endMarker(exp.Slug))
		i := bytes.Index(out, begin)
		if i < 0 {
			return nil, fmt.Errorf("artifact: document is missing %s", begin)
		}
		if bytes.Index(out[i+len(begin):], begin) >= 0 {
			return nil, fmt.Errorf("artifact: duplicate %s", begin)
		}
		j := bytes.Index(out[i:], end)
		if j < 0 {
			return nil, fmt.Errorf("artifact: %s is not closed by %s", begin, end)
		}
		var body bytes.Buffer
		exp.Build(env).RenderMarkdown(&body)
		var repl bytes.Buffer
		repl.Write(begin)
		repl.WriteByte('\n')
		repl.Write(body.Bytes())
		repl.Write(end)
		out = append(append(append([]byte(nil), out[:i]...), repl.Bytes()...), out[i+j+len(end):]...)
	}
	return out, nil
}

// Drift regenerates doc and returns the slugs whose marker-bounded
// bodies differ from the committed bytes (nil means the document is
// current). The error reports structural problems — missing or unknown
// markers — not content drift.
func Drift(doc []byte, e *experiments.Env) ([]string, error) {
	fresh, err := RegenerateDoc(doc, e)
	if err != nil {
		return nil, err
	}
	if bytes.Equal(doc, fresh) {
		return nil, nil
	}
	var drifted []string
	for _, exp := range experiments.Catalog() {
		if !bytes.Equal(section(doc, exp.Slug), section(fresh, exp.Slug)) {
			drifted = append(drifted, exp.Slug)
		}
	}
	if len(drifted) == 0 {
		// Bytes differ outside every marker pair — cannot happen via
		// RegenerateDoc, but report something actionable anyway.
		drifted = []string{"(outside markers)"}
	}
	return drifted, nil
}

// section extracts one experiment's marker-bounded bytes (nil when the
// markers are absent or malformed).
func section(doc []byte, slug string) []byte {
	begin, end := []byte(beginMarker(slug)), []byte(endMarker(slug))
	i := bytes.Index(doc, begin)
	if i < 0 {
		return nil
	}
	j := bytes.Index(doc[i:], end)
	if j < 0 {
		return nil
	}
	return doc[i : i+j+len(end)]
}

// WriteBundle regenerates every catalog experiment into dir:
//
//	dir/csv/<slug>.csv   one RFC-4180 CSV per experiment
//	dir/tables.md        all tables as one markdown document
//	dir/tables.tex       all tables as LaTeX table environments
//	dir/MANIFEST.json    schema version and the slug list
//
// The bundle is deterministic: two runs over the same tree produce
// byte-identical files.
func WriteBundle(e *experiments.Env, dir string) error {
	csvDir := filepath.Join(dir, "csv")
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	var md, tex, manifest bytes.Buffer
	md.WriteString("# FxHENN paper-artifact tables\n\n")
	md.WriteString("Generated by `go run ./cmd/artifact`; do not edit. Each section\n")
	md.WriteString("is one experiment of the reproduction; the same tables ship as\n")
	md.WriteString("CSV under csv/ and as LaTeX in tables.tex.\n")
	tex.WriteString("% FxHENN paper-artifact tables. Generated by `go run ./cmd/artifact`.\n")
	tex.WriteString("% \\input this file inside a document; every experiment is one\n")
	tex.WriteString("% table environment.\n")
	fmt.Fprintf(&manifest, "{\n  \"schema_version\": %d,\n  \"experiments\": [", SchemaVersion)

	for i, exp := range experiments.Catalog() {
		t := exp.Build(e)
		var csvBuf bytes.Buffer
		t.RenderCSV(&csvBuf)
		if err := os.WriteFile(filepath.Join(csvDir, exp.Slug+".csv"), csvBuf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&md, "\n## %s — %s\n\n", exp.Slug, t.Title)
		t.RenderMarkdown(&md)
		tex.WriteByte('\n')
		t.RenderLaTeX(&tex)
		if i > 0 {
			manifest.WriteString(", ")
		}
		fmt.Fprintf(&manifest, "%q", exp.Slug)
	}
	manifest.WriteString("]\n}\n")

	if err := os.WriteFile(filepath.Join(dir, "tables.md"), md.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "tables.tex"), tex.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "MANIFEST.json"), manifest.Bytes(), 0o644)
}
