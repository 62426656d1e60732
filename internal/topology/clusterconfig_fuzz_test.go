package topology

import (
	"bytes"
	"testing"
)

// FuzzLoadClusterConfig throws arbitrary JSON at the cluster-config
// loader: it must never panic, must be deterministic, and any spec it
// returns must already satisfy its own Validate contract (LoadClusterConfig
// is the boundary where untrusted sweep/scenario files enter the
// simulator).
func FuzzLoadClusterConfig(f *testing.F) {
	seeds := []string{
		`{"nodes":2,"node":{"base_system":"aurora"}}`,
		`{"name":"big","nodes":8,"node":{"base_system":"dawn"},"network":{"injection_gbs":25,"hops":3}}`,
		`{"nodes":1,"node":{"base_system":"aurora","gpu_count":2},"network":{"link_latency_us":0.3,"switch_latency_us":0.35}}`,
		`{"node":{"base_system":"aurora"}}`, // missing nodes
		`{"nodes":2,"node":{"base_system":"nope"}}`,
		`{"nodes":2,"node":{"base_system":"aurora"},"typo":1}`,
		`{"nodes":-3,"node":{"base_system":"aurora"}}`,
		`{}`,
		`[]`,
		`not json`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := LoadClusterConfig(bytes.NewReader(data))
		spec2, err2 := LoadClusterConfig(bytes.NewReader(data))
		if (err == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic verdict: %v vs %v", err, err2)
		}
		if err != nil {
			if spec != nil {
				t.Fatalf("non-nil spec alongside error %v", err)
			}
			return
		}
		if spec == nil || spec2 == nil {
			t.Fatal("nil spec without an error")
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("loaded spec fails its own validation: %v", verr)
		}
		if spec.Name != spec2.Name || spec.NodeCount != spec2.NodeCount || spec.Network != spec2.Network {
			t.Fatalf("non-deterministic load: %+v vs %+v", spec, spec2)
		}
		if spec.NodeCount < 1 {
			t.Fatalf("accepted node count %d", spec.NodeCount)
		}
		if spec.TotalStacks() < 1 {
			t.Fatalf("cluster has %d stacks", spec.TotalStacks())
		}
	})
}
