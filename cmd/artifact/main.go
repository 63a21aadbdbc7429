// Command artifact is the one-command paper-artifact runner: it re-runs
// the full FxHENN reproduction — every table and figure of the paper's
// evaluation, regenerated from the calibrated models on both boards —
// and emits everything as a versioned bundle:
//
//	artifact/csv/<slug>.csv    one RFC-4180 CSV per experiment
//	artifact/tables.md         all tables as markdown
//	artifact/tables.tex        all tables as LaTeX environments
//	artifact/MANIFEST.json     schema version, slug list
//
// The paper tables are deterministic (model-derived, no wall-clock), so
// the same binary also owns EXPERIMENTS.md: table bodies in that
// document live between `<!-- artifact:<slug> -->` markers, and
//
//	go run ./cmd/artifact -update-experiments   rewrites them in place
//	go run ./cmd/artifact -check                exits 1 when they drifted
//
// A tier-1 test (internal/artifact drift test) runs the -check logic on
// every `go test ./...`, so committed docs cannot silently diverge from
// the code that generates them.
//
//	go run ./cmd/artifact -measured tiny        one live traced inference
//
// runs a real encrypted inference (tiny, tinyconv or mnist) and prints its
// measured per-layer host time next to the modeled accelerator's; it is a
// wall-clock measurement and never part of the bundle. `make artifact`
// wraps the common invocation; see ARTIFACT.md for the guided tour.
package main

import (
	"flag"
	"fmt"
	"os"

	"fxhenn/internal/artifact"
	"fxhenn/internal/experiments"
)

func main() {
	out := flag.String("out", "artifact", "bundle output directory")
	expPath := flag.String("experiments", "EXPERIMENTS.md", "path to the marker-bearing experiments document")
	update := flag.Bool("update-experiments", false, "rewrite the generated table bodies in -experiments, then exit")
	check := flag.Bool("check", false, "verify -experiments matches a fresh regeneration, exit 1 on drift, then exit")
	measured := flag.String("measured", "", "run one live traced inference (tiny, tinyconv, mnist), print the measured-vs-modeled per-layer table, then exit")
	flag.Parse()

	env := experiments.NewEnv()

	if *measured != "" {
		if err := env.Measured(os.Stdout, *measured); err != nil {
			fmt.Fprintf(os.Stderr, "artifact: -measured: %v\n", err)
			os.Exit(2)
		}
		return
	}

	if *update || *check {
		doc, err := os.ReadFile(*expPath)
		if err != nil {
			fatal(err)
		}
		if *check {
			drifted, err := artifact.Drift(doc, env)
			if err != nil {
				fatal(err)
			}
			if len(drifted) > 0 {
				fmt.Fprintf(os.Stderr, "artifact: %s has drifted from the generators: %v\n", *expPath, drifted)
				fmt.Fprintf(os.Stderr, "artifact: run `go run ./cmd/artifact -update-experiments` and commit the result\n")
				os.Exit(1)
			}
			fmt.Printf("artifact: %s is current (%d generated tables)\n", *expPath, len(experiments.Catalog()))
			return
		}
		fresh, err := artifact.RegenerateDoc(doc, env)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*expPath, fresh, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("artifact: regenerated %d table bodies in %s\n", len(experiments.Catalog()), *expPath)
		return
	}

	if err := artifact.WriteBundle(env, *out); err != nil {
		fatal(err)
	}
	fmt.Printf("artifact: wrote %d paper tables to %s (csv/, tables.md, tables.tex)\n",
		len(experiments.Catalog()), *out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "artifact: %v\n", err)
	os.Exit(1)
}
