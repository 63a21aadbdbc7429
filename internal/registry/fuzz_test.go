package registry

import (
	"errors"
	"testing"
)

// FuzzDecodeFile hardens the registry's on-disk decode boundary: an
// arbitrary byte image must either decode into records that all pass
// Validate, or fail with a typed ErrCorrupt — never panic, never return
// invalid records. The seeds cover the envelope's edges; the committed
// corpus under testdata/fuzz extends them.
func FuzzDecodeFile(f *testing.F) {
	valid, err := EncodeFile([]Record{
		{Tenant: "alice", Model: "tiny", WeightSeed: 1, KeySeed: 2, Generation: 3,
			Quota: Quota{MaxConcurrent: 2}, Batch: Batch{Size: 4, WindowMS: 20}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(`{"version": 1, "records": []}`))
	f.Add([]byte(`{"version": 2, "records": []}`))
	f.Add([]byte(`{"version": 1, "records": [{"tenant": "a"}]}`))
	f.Add([]byte(`{"version": 1, "records": null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"version": 1, "records": [{"tenant": "a", "model": "m", "quota": {"max_concurrent": -1}}]}`))
	// The retired compile-mode field: refused by DisallowUnknownFields.
	f.Add([]byte(`{"version": 1, "records": [{"tenant": "a", "model": "tiny", "hoist": true}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeFile(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not typed ErrCorrupt: %v", err)
			}
			return
		}
		for _, rec := range recs {
			if verr := rec.Validate(); verr != nil {
				t.Fatalf("decode accepted invalid record %+v: %v", rec, verr)
			}
		}
	})
}
