package core

import (
	"testing"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

// drivePrefetch runs a multi-layer decode harness over identical stores,
// queries and appends, invoking the model's layer-hook call sequence
// (BeforeLayer → OnAppend/Select per head → AfterLayer → EndStep), and
// returns every Select result. rt may be nil (ledgers alone, no channel).
func drivePrefetch(cfg Config, rt *kvcache.TransferRuntime, layers, heads, n, d, steps, budget int) [][]int {
	sel := New(cfg)
	if rt != nil {
		sel.SetTransferRuntime(rt)
	}
	sel.Reset(layers, heads, d)
	stores := buildStores(7, layers, heads, n, d)
	for l := 0; l < layers; l++ {
		for h := 0; h < heads; h++ {
			sel.OnPrefill(l, h, stores[l*heads+h])
		}
	}
	var out [][]int
	k := make([]float32, d)
	v := make([]float32, d)
	for step := 0; step < steps; step++ {
		for l := 0; l < layers; l++ {
			sel.BeforeLayer(l)
			for h := 0; h < heads; h++ {
				r := rng.New(uint64(step)*1315423911 + uint64(l)*2654435761 + uint64(h)*97)
				for j := 0; j < d; j++ {
					k[j] = r.NormFloat32()
					v[j] = r.NormFloat32()
				}
				s := stores[l*heads+h]
				s.Append(k, v)
				sel.OnAppend(l, h, s)
			}
			for h := 0; h < heads; h++ {
				q := randQuery(uint64(step)*31+uint64(l)*17+uint64(h)+5, d)
				idx := sel.Select(l, h, q, stores[l*heads+h], budget)
				out = append(out, append([]int(nil), idx...))
			}
			sel.AfterLayer(l)
		}
		sel.EndStep()
		if rt != nil {
			rt.Advance()
		}
	}
	return out
}

func positionsEqual(a, b [][]int) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return i, false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return i, false
			}
		}
	}
	return 0, true
}

// TestPrefetchDoesNotChangeSelection is the determinism lock at selector
// level: layer-ahead prefetch through the transfer runtime must produce
// exactly the positions the plain ledger path (no runtime) selects.
// Transfers change when residency moves, never what attention reads.
func TestPrefetchDoesNotChangeSelection(t *testing.T) {
	const (
		layers, heads = 3, 2
		n, d          = 600, 8
		steps, budget = 24, 128
	)
	cfg := traceConfig()
	base := drivePrefetch(cfg, nil, layers, heads, n, d, steps, budget)

	rt := kvcache.NewTransferRuntime(kvcache.Channel{SecPerPage: 5e-6})
	got := drivePrefetch(cfg, rt, layers, heads, n, d, steps, budget)
	if i, ok := positionsEqual(base, got); !ok {
		t.Fatalf("transfer runtime changed selection at call %d", i)
	}
}

// TestPrefetchIssuesAndHits: the layer-ahead path actually prefetches pages
// for layers ≥ 1 and a healthy share of them are claimed by the next layer's
// exact fetch (cross-layer query similarity in the structured test data).
func TestPrefetchIssuesAndHits(t *testing.T) {
	cfg := traceConfig()
	rt := kvcache.NewTransferRuntime(kvcache.Channel{SecPerPage: 5e-6})
	drivePrefetch(cfg, rt, 3, 2, 600, 8, 24, 128)
	o := rt.Stats()
	if o.PrefetchedPages == 0 {
		t.Fatal("no pages prefetched by the layer-ahead path")
	}
	if o.PrefetchHits == 0 {
		t.Fatal("no prefetched page was ever claimed by an exact fetch")
	}
	if o.Transfers == 0 || o.BusySec <= 0 {
		t.Fatalf("runtime saw no transfers: %+v", o)
	}
}
