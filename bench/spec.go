package main

// The benchmark's vocabulary: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository
// root is generated from these tables (`-print-spec`) and
// TestSpecMatchesBenchmarkJSON keeps the two from drifting. bench/README.md
// records why each workload and bound was chosen and which end-to-end
// metric every per-layer metric is expected to move.

import "fmt"

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
// The driver makes 4 + 22 × 4 runs inside 3420 s including two builds and
// every set-up, so one run of each workload may take ≈ 140 s together.
// Set-up, replay and process start cost ≈ 25 s of that (mnist_single alone
// ≈ 11 s), which leaves 4 × 25 s of measuring and a tenth in hand for a
// slow host.
const runSeconds = 25

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median (or, with Abs, the
	// absolute amount) a metric may get worse before -compare calls it a
	// regression. Per-layer metrics carry no bound.
	Bound float64
	Abs   bool
	// On lists the workloads an extra metric applies to; empty means all.
	On []string
}

// endToEnd is what the driver gates: every workload reports every one of
// these on an untraced run, and none is ever 0. The schema has one bound
// per metric for all four workloads, so each bound is set by the least
// steady workload: three times the quartile spread ten seeds showed on it
// (README, "Steadiness"), which for the three timings is more than the
// 25 % the driver allows. mnist_single and tiny_cluster_open keep both
// cores busy, and on the host the benchmark was sized on that alone moves
// identical runs by ±10 %.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "within_limit_share", Unit: "share", Better: "higher", Bound: 0.05},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "rss_mb_p50", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "precision_bits", Unit: "bits", Better: "higher", Bound: 0.08},
}

// extras are end-to-end metrics that exist on some workloads only, which
// BENCHMARK.json cannot express (its end_to_end list is per-benchmark and
// never 0). They are measured on the same untraced run, stored in the
// result file, printed by the full run and gated by -compare.
var extras = []metricSpec{
	{Name: "latency_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25,
		On: []string{"tiny_cluster_open", "dse_explore"}},
	{Name: "capacity_rps", Unit: "1/s", Better: "higher", Bound: 0.10,
		On: []string{"tiny_cluster_open"}},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0, Abs: true},
	{Name: "wire_kb_per_req", Unit: "KB", Better: "lower", Bound: 0.001,
		On: []string{"mnist_single", "tiny_cluster_open"}},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.10,
		On: []string{"mnist_single", "mnist_batch8", "tiny_cluster_open"}},
}

// untracedSpecs is everything an untraced run may report.
var untracedSpecs = append(append([]metricSpec(nil), endToEnd...), extras...)

// hecnnLayers is the union of HE-CNN layer names over the networks the
// workloads serve (MNIST and tiny: Cnv1 Act1 Fc1 Act2 Fc2; tinyconv has
// Cnv2 in place of Fc1).
var hecnnLayers = []string{"Cnv1", "Act1", "Fc1", "Cnv2", "Act2", "Fc2"}

// opClasses are the hecnn.Backend calls the traced pass times in place.
var opClasses = []string{"pcmult", "pcadd", "ccadd", "square", "rescale", "rotate", "rotate_hoisted"}

func pl(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

// perLayer is the traced pass. A metric that does not apply to a workload
// (gateway.* on mnist_single, ckks.* on dse_explore) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		pl("modarith.mul_mont_ns_per_coeff", "ns", "lower"),
		pl("ntt.forward_us", "us", "lower"),
		pl("ntt.inverse_us", "us", "lower"),
		pl("ring.ntt_us", "us", "lower"),
		pl("ring.intt_us", "us", "lower"),
		pl("ring.mul_coeffs_us", "us", "lower"),
		pl("ring.automorphism_us", "us", "lower"),
		pl("ring.div_round_us", "us", "lower"),

		pl("ckks.rotate_us", "us", "lower"),
		pl("ckks.rotate_hoisted_us_per_rot", "us", "lower"),
		pl("ckks.mul_relin_us", "us", "lower"),
		pl("ckks.rescale_us", "us", "lower"),
		pl("ckks.mul_plain_us", "us", "lower"),
		pl("ckks.add_us", "us", "lower"),
		pl("ckks.encode_us", "us", "lower"),
		pl("ckks.encrypt_us", "us", "lower"),
		pl("ckks.decrypt_decode_us", "us", "lower"),
		pl("ckks.marshal_us", "us", "lower"),
		pl("ckks.unmarshal_us", "us", "lower"),
		pl("ckks.allocs_per_rotate", "count", "lower"),
	}
	for _, l := range hecnnLayers {
		m = append(m, pl("hecnn.layer_ms."+l, "ms", "lower"))
	}
	for _, c := range opClasses {
		m = append(m, pl("hecnn.op_ms."+c, "ms", "lower"))
	}
	m = append(m,
		pl("hecnn.evaluate_ms", "ms", "lower"),
		pl("hecnn.hops", "count", "lower"),
		pl("hecnn.keyswitches", "count", "lower"),
		pl("hecnn.rotations", "count", "lower"),
		pl("hecnn.levels_used", "count", "lower"),
		pl("hecnn.encode_calls", "count", "lower"),
		pl("hecnn.modeled_ms", "ms", "lower"),
		pl("hecnn.unattributed_share", "share", "lower"),

		pl("cache.hits", "count", "higher"),
		pl("cache.misses", "count", "lower"),
		pl("cache.hit_ratio", "share", "higher"),
		pl("cache.bytes", "B", "lower"),

		pl("parallel.tasks", "count", "higher"),
		pl("parallel.inline_share", "share", "lower"),
		pl("parallel.speedup", "x", "higher"),
	)
	for _, p := range []string{"queue", "decode", "validate", "evaluate", "encode"} {
		m = append(m, pl("mlaas.phase_ms."+p, "ms", "lower"))
	}
	m = append(m,
		pl("mlaas.queue_wait_ms_p90", "ms", "lower"),
		pl("mlaas.requests.ok", "count", "higher"),
		pl("mlaas.requests.busy", "count", "lower"),
		pl("mlaas.requests.bad", "count", "lower"),
		pl("mlaas.requests.internal", "count", "lower"),
		pl("client.encrypt_ms", "ms", "lower"),
		pl("wire.send_ms", "ms", "lower"),
		pl("server.wait_ms", "ms", "lower"),
		pl("wire.recv_ms", "ms", "lower"),
		pl("client.decrypt_ms", "ms", "lower"),
		pl("wire.kb_per_req", "KB", "lower"),

		pl("gateway.routed", "count", "higher"),
		pl("gateway.reroutes", "count", "lower"),
		pl("gateway.refused", "count", "lower"),
		pl("gateway.hop_ms", "ms", "lower"),

		pl("dse.explore_ms.mnist", "ms", "lower"),
		pl("dse.explore_ms.cifar10", "ms", "lower"),
		pl("dse.configs_evaluated", "count", "lower"),
		pl("dse.pareto_size", "count", "higher"),
		pl("accel.generate_ms", "ms", "lower"),
		pl("accel.simulate_ms", "ms", "lower"),
		pl("accel.modeled_latency_ms.mnist", "ms", "lower"),
		pl("accel.modeled_latency_ms.cifar10", "ms", "lower"),

		pl("runtime.gc_cpu_share", "share", "lower"),
		pl("runtime.gc_cycles", "count", "lower"),
		pl("runtime.gc_pause_ms_total", "ms", "lower"),
		pl("runtime.allocs_per_op", "count", "lower"),
		pl("runtime.heap_live_mb_peak", "MB", "lower"),

		pl("gen.capacity_rps", "1/s", "higher"),
		pl("gen.sent", "count", "higher"),
		pl("gen.completed", "count", "higher"),
		pl("gen.lateness_ms_p50", "ms", "lower"),
		pl("gen.lateness_ms_max", "ms", "lower"),
		pl("gen.latency_ms_p50", "ms", "lower"),
		pl("gen.latency_ms_p90", "ms", "lower"),
		pl("gen.latency_ms_p99", "ms", "lower"),
	)
	return m
}

type workloadSpec struct {
	Name string
	Why  string
	// LimitMS is the latency limit behind within_limit_share: an
	// operation answered correctly within it counts, anything else
	// misses. Closed-loop limits sit at twice the latency measured when
	// the benchmark was defined; the open-loop limit is from due time.
	LimitMS float64
	run     func(w workloadSpec, cfg runConfig) (*runResult, error)
}

var workloads = []workloadSpec{
	{
		Name:    "mnist_single",
		Why:     "paper headline: one MNIST image at a time over TCP at N=8192; ckks keyswitch/NTT bound, wire and gateway near 0",
		LimitMS: 4000,
		run:     runMNISTSingle,
	},
	{
		Name:    "mnist_batch8",
		Why:     "same hecnn/ckks API on a 32-coefficient ring, 8 images per batch; bound by per-op overhead, allocation and GC, not NTT",
		LimitMS: 1500,
		run:     runMNISTBatch8,
	},
	{
		Name:    "tiny_cluster_open",
		Why:     "gateway + 2 shards + 4 tenants under a fixed-rate Poisson schedule timed from due time, after a closed-loop capacity phase; the serving stack is a visible share",
		LimitMS: 100,
		run:     runTinyCluster,
	},
	{
		Name:    "dse_explore",
		Why:     "the paper's DSE + design generation + schedule simulation; bypasses ckks/hecnn/mlaas, so crypto and serving changes predict no change",
		LimitMS: 150,
		run:     runDSEExplore,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func (m metricSpec) appliesTo(workload string) bool {
	if len(m.On) == 0 {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []jsonWorkload   `json:"workloads"`
	EndToEnd   []jsonEndToEnd   `json:"end_to_end"`
	PerLayer   []jsonLayerEntry `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkSpec() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayerEntry{m.Name, m.Unit, m.Better})
	}
	return b
}
