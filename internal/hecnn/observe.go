package hecnn

import (
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
