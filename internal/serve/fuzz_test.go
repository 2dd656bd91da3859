package serve

import (
	"bytes"
	"runtime"
	"testing"
)

// specAllocBudget is the most the spec path may allocate for an input of n
// bytes: a fixed allowance (decoder state, the registries Validate
// consults) plus a constant factor of the input.
func specAllocBudget(n int) uint64 { return 1<<20 + 64*uint64(n) }

// FuzzDecodeSpec: the crserve spec path — DecodeSpec, Normalized, Validate,
// Hash — must accept or reject any byte stream without panicking and
// within specAllocBudget, and a spec it accepts must keep its hash after
// its CanonicalJSON goes through DecodeSpec again. The corpus is seeded
// with sim, experiment and shard jobs, and with the retired gaincache,
// farfield_eps and sinr_parallel fields older clients may still send.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{
		`{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"seed":7,"trials":2}`,
		`{"sim":{"n":4,"deploy":"pairs","algo":"sweep","channel":"radio-cd","p":0.25,"max_rounds":9},"trace":true}`,
		`{"experiment":"E5","quick":true,"trials":2,"format":"markdown","sinr_parallel":2}`,
		`{"kind":"experiment","experiment":"E1,E3","shard":{"index":1,"count":3}}`,
		`{"experiment":"E5","seed":3,"gaincache":"auto"}`,
		`{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"farfield_eps":0.01}`,
		`{"experiment":"all","farfield_eps":0,"gaincache":"off"}`,
		`{"experiment":"E1","farfield_eps":0.7}`,
		`{"sim":{"n":8,"deploy":"disk","algo":"fixed"},"gaincache":"maybe"}`,
		`{"sim":{"n":8,"deploy":"disk","algo":"fixed"},"trials":1,"sinr_parallel":257}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec, err := DecodeSpec(bytes.NewReader(data))
		hash := ""
		if err == nil {
			if norm := spec.Normalized(); norm.Validate() == nil {
				hash = norm.Hash()
			}
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > specAllocBudget(len(data)) {
			t.Fatalf("spec path allocated %d bytes for a %d-byte input", alloc, len(data))
		}
		if hash == "" {
			return
		}
		canonical := spec.CanonicalJSON()
		again, err := DecodeSpec(bytes.NewReader(canonical))
		if err != nil {
			t.Fatalf("canonical form %s of an accepted spec does not decode: %v", canonical, err)
		}
		if again.Hash() != hash {
			t.Fatalf("hash moved after re-decoding %s:\n got %s\nwant %s", canonical, again.Hash(), hash)
		}
	})
}
