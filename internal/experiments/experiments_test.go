package experiments

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	envOnce sync.Once
	testEnv *Env
)

func getEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() { testEnv = NewEnv() })
	return testEnv
}

// render looks an experiment up by slug in Catalog and returns its
// fixed-width rendering.
func render(t *testing.T, slug string) string {
	t.Helper()
	for _, exp := range Catalog() {
		if exp.Slug == slug {
			var buf bytes.Buffer
			exp.Build(getEnv(t)).Render(&buf)
			return buf.String()
		}
	}
	t.Fatalf("no experiment %q in Catalog", slug)
	return ""
}

func TestEnvProfiles(t *testing.T) {
	e := getEnv(t)
	if e.MNIST.TotalHOPs() != 826 || e.CIFAR.TotalKS() != 57000 {
		t.Fatal("paper profiles wrong")
	}
	if e.OursMNIST.TotalHOPs() < 800 || e.OursCIFAR.TotalHOPs() < 80000 {
		t.Fatal("derived profiles implausible")
	}
}

// TestEveryExperimentRenders: all thirteen tables/figures (plus ablations)
// produce non-empty output containing both paper and model columns.
func TestEveryExperimentRenders(t *testing.T) {
	cases := []struct {
		slug string
		want []string
	}{
		{"table-i", []string{"KeySwitch", "3.170", "DSP% model"}},
		{"table-ii", []string{"Cnv1", "Sum", "206.00%"}},
		{"table-iii", []string{"off-chip", "22.6"}},
		{"table-iv", []string{"21125", "84500", "blow-up"}},
		{"table-v", []string{"2.07X", "0.062"}},
		{"table-vi", []string{"FxHENN-CIFAR10", "Mod.Size"}},
		{"table-vii", []string{"LoLa", "CryptoNets", "FxHENN (repro)", "energy eff"}},
		{"table-viii", []string{"conv2_3", "1.32X"}},
		{"table-ix", []string{"Baseline (repro)", "agg BRAM"}},
		{"fig-7", []string{"layer speedup", "Fc1"}},
		{"fig-8", []string{"KeySwitch", "baseline", "FxHENN"}},
		{"fig-9", []string{"Pareto frontier", "1500"}},
		{"fig-10", []string{"nc_NTT", "FxHENN-CIFAR10"}},
		{"ablations", []string{"full FxHENN", "coarse-grained"}},
	}
	for _, tc := range cases {
		out := render(t, tc.slug)
		if len(out) < 100 {
			t.Fatalf("%s: output too short", tc.slug)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Fatalf("%s: missing %q in output:\n%s", tc.slug, w, out)
			}
		}
	}
}

// TestCatalogCoversEveryExperiment: the artifact catalog names all
// fifteen deterministic experiments with unique slugs, and every
// builder regenerates bit-identical output across two invocations —
// the property the EXPERIMENTS.md drift test rests on.
func TestCatalogCoversEveryExperiment(t *testing.T) {
	e := getEnv(t)
	cat := Catalog()
	if len(cat) != 15 {
		t.Fatalf("catalog has %d experiments, want 15", len(cat))
	}
	seen := map[string]bool{}
	for _, exp := range cat {
		if seen[exp.Slug] {
			t.Fatalf("duplicate slug %q", exp.Slug)
		}
		seen[exp.Slug] = true
		var a, b bytes.Buffer
		exp.Build(e).RenderMarkdown(&a)
		exp.Build(e).RenderMarkdown(&b)
		if a.Len() == 0 {
			t.Fatalf("%s: empty table", exp.Slug)
		}
		if a.String() != b.String() {
			t.Fatalf("%s: nondeterministic output", exp.Slug)
		}
	}
}

// TestTableVII_ReproBeatsEveryPublishedSystem: our modeled FxHENN rows must
// be the fastest MNIST systems in the table, as in the paper.
func TestTableVII_ReproBeatsEveryPublishedSystem(t *testing.T) {
	out := render(t, "table-vii")
	re := regexp.MustCompile(`FxHENN \(repro\)\s+(\S+)`)
	matches := re.FindAllStringSubmatch(out, -1)
	if len(matches) != 2 {
		t.Fatalf("expected 2 repro rows, got %d", len(matches))
	}
	for _, m := range matches {
		if !strings.HasPrefix(m[1], "0.0") && !strings.HasPrefix(m[1], "0.1") && !strings.HasPrefix(m[1], "0.2") {
			t.Fatalf("repro MNIST latency %s not sub-second", m[1])
		}
	}
}

// TestTableI_ModelWithinTolerance scrapes the rendered Table I and verifies
// every model latency is within 10% of the paper value.
func TestTableI_ModelWithinTolerance(t *testing.T) {
	out := render(t, "table-i")
	lines := strings.Split(out, "\n")
	checked := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 8 || strings.HasPrefix(line, " ") && strings.Contains(line, "op") {
			continue
		}
		var paper, model float64
		if _, err := parseFloat(fields[6], &paper); err != nil {
			continue
		}
		if _, err := parseFloat(fields[7], &model); err != nil {
			continue
		}
		if paper == 0 {
			continue
		}
		rel := (model - paper) / paper
		if rel < -0.10 || rel > 0.10 {
			t.Fatalf("latency off by %.0f%%: %s", rel*100, line)
		}
		checked++
	}
	if checked < 9 {
		t.Fatalf("only %d Table I rows checked", checked)
	}
}

func parseFloat(s string, out *float64) (bool, error) {
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return false, err
	}
	*out = v
	return true, nil
}
