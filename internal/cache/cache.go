// Package cache names the telemetry of hecnn's operand tables — the
// encoded weight plaintexts a compiled network keeps resident — so the
// serving stack and the benchmark read one set of families and one
// snapshot type.
package cache

// Metric families a compiled network's operand table exports. All carry
// a {cache="<name>"} label: hecnn_plaintext or hecnn_batched_plaintext.
const (
	MetricHits    = "cache_hits_total"   // operand lookups served from a resident plaintext
	MetricMisses  = "cache_misses_total" // encoder calls: warm-up plus every non-resident use
	MetricEntries = "cache_entries"      // resident plaintexts, summed over live tables
	MetricBytes   = "cache_bytes"        // resident plaintext bytes, summed over live tables
)

// Stats is a point-in-time snapshot of one operand table.
type Stats struct {
	Hits    int64 // lookups served from a resident plaintext
	Misses  int64 // encoder calls
	Entries int   // resident plaintexts
	Bytes   int64 // resident bytes
}
