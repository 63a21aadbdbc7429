package hecnn

import (
	"fmt"
	"io"
	"time"

	"fxhenn/internal/ckks"
)

// LayerStat is the telemetry record of one HE-CNN layer: the paper's
// Table-IV-shaped row (layer, HOP count, KS count, level) plus the
// measured wall time and the per-op breakdown. Op counts and levels come
// from the program's count fold — the fold Network.Count records — so a
// live run and Network.Count agree exactly.
type LayerStat struct {
	Layer       string
	Wall        time.Duration
	HOPs        int
	KeySwitches int
	// Level is the highest ciphertext level the layer's operations ran
	// at (the paper's convention; 0 if the layer recorded no ops).
	Level int
	// Ops[op] counts events per ckks operation.
	Ops [ckks.NumOps]int
}

// add counts one event of op at level.
func (st *LayerStat) add(op ckks.Op, level int) {
	st.Ops[op]++
	st.HOPs++
	if op.IsKeySwitch() {
		st.KeySwitches++
	}
	st.Level = max(st.Level, level)
}

// Tracer instruments an evaluation with per-layer wall-clock spans and op
// accounting. Each evaluation replaces Stats with one entry per layer;
// Sink, when set, additionally receives each entry as the layer completes
// (for registry recording or slow-request logs). The zero value is ready
// to use.
type Tracer struct {
	Sink  func(LayerStat)
	Stats []LayerStat
}

// layerDone records layer li's wall time and hands its stat to Sink.
func (tr *Tracer) layerDone(li int, wall time.Duration) {
	tr.Stats[li].Wall = wall
	if tr.Sink != nil {
		tr.Sink(tr.Stats[li])
	}
}

// TotalWall sums the layer wall times of the last evaluation.
func (tr *Tracer) TotalWall() time.Duration {
	var d time.Duration
	for i := range tr.Stats {
		d += tr.Stats[i].Wall
	}
	return d
}

// WriteLayerTable renders the per-layer stats as the live counterpart of
// the paper's Table IV: one row per layer with wall time, HOP count,
// KeySwitch count, and level.
func WriteLayerTable(w io.Writer, stats []LayerStat) {
	fmt.Fprintf(w, "%-8s %12s %6s %5s %6s\n", "Layer", "Wall", "HOPs", "KS", "Level")
	var wall time.Duration
	var hops, ks int
	for i := range stats {
		st := &stats[i]
		fmt.Fprintf(w, "%-8s %12s %6d %5d %6d\n",
			st.Layer, st.Wall.Round(time.Microsecond), st.HOPs, st.KeySwitches, st.Level)
		wall += st.Wall
		hops += st.HOPs
		ks += st.KeySwitches
	}
	fmt.Fprintf(w, "%-8s %12s %6d %5d\n", "total", wall.Round(time.Microsecond), hops, ks)
}
