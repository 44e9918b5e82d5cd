package model

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
)

// Prefill/decode conformance: the intra-op parallel forward pass must be
// bit-identical to the single-worker run at every pool width, for prompt
// lengths smaller than, equal to and much larger than the worker count.
// This is the lock on the determinism contract ClusterKV's selectors depend
// on — score ordering, and therefore cluster selection, is bit-sensitive.

var prefillWidths = []int{1, 2, 3, 8}

// forwardFingerprint runs one prefill + a few greedy decode steps at the
// given pool width and returns every float the outside world can observe:
// per-position logits, the final hidden state, the KV store contents and the
// decode logits.
func forwardFingerprint(t *testing.T, width int, tokens []int, decodeSteps int) []float32 {
	t.Helper()
	pool := parallel.NewPool(width)
	old := parallel.SetDefault(pool)
	defer func() {
		parallel.SetDefault(old)
		pool.Close()
	}()

	m := New(DefaultConfig())
	cfg := m.Config()
	seq := m.NewSequence(nil, 0)
	logits := make([]float32, len(tokens)*cfg.VocabSize)
	last := seq.Prefill(tokens, logits)

	var out []float32
	out = append(out, logits...)
	out = append(out, last...)
	for l := 0; l < cfg.NLayers; l++ {
		for kv := 0; kv < cfg.NKVHeads; kv++ {
			st := seq.Store(l, kv)
			out = append(out, st.ReadKeys(0, st.Len(), nil)...)
			out = append(out, st.ReadValues(0, st.Len(), nil)...)
		}
	}
	tok := tokens[len(tokens)-1]
	for step := 0; step < decodeSteps; step++ {
		dl := seq.Decode(tok)
		out = append(out, dl...)
		best := 0
		for i, v := range dl {
			if v > dl[best] {
				best = i
			}
		}
		tok = best
	}
	return out
}

func TestPrefillConformanceAcrossWidths(t *testing.T) {
	r := rng.New(7)
	vocab := DefaultConfig().VocabSize
	for _, n := range []int{1, 3, 37, 200} {
		tokens := make([]int, n)
		for i := range tokens {
			tokens[i] = r.Intn(vocab)
		}
		want := forwardFingerprint(t, 1, tokens, 4)
		for _, width := range prefillWidths[1:] {
			got := forwardFingerprint(t, width, tokens, 4)
			if len(got) != len(want) {
				t.Fatalf("n=%d width=%d: fingerprint length %d != %d", n, width, len(got), len(want))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d width=%d: float %d = %g (bits %08x), want %g (bits %08x)",
						n, width, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestPrefillConformanceTable is the fine-grained table: per-(width, length)
// subtests over the kernel-level observable (per-position logits only), so a
// failure names the exact shape that diverged.
func TestPrefillConformanceTable(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"single-token", 1},
		{"fewer-rows-than-workers", 3},
		{"odd-length", 37},
		{"grain-boundary", 129},
	}
	r := rng.New(11)
	vocab := DefaultConfig().VocabSize
	for _, tc := range cases {
		tokens := make([]int, tc.n)
		for i := range tokens {
			tokens[i] = r.Intn(vocab)
		}
		want := forwardFingerprint(t, 1, tokens, 0)
		for _, width := range prefillWidths {
			t.Run(tc.name+"/width="+string(rune('0'+width)), func(t *testing.T) {
				got := forwardFingerprint(t, width, tokens, 0)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("float %d differs: %g vs %g", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// prefillArmFingerprint is what a prefill leaves for the rest of the
// sequence's life, the part both Prefill arms must agree on: the returned
// hidden state, every (layer, KV head) store's K/V and the logits of
// decodeSteps greedy decode steps after it. Without per-position logits the
// last layer attends only for the returned row; with them, for every row.
func prefillArmFingerprint(seq *Sequence, tokens []int, withLogits bool, decodeSteps int) []float32 {
	var logits []float32
	if withLogits {
		logits = make([]float32, len(tokens)*seq.m.cfg.VocabSize)
	}
	out := seq.Prefill(tokens, logits)
	for _, st := range seq.stores {
		out = append(out, st.ReadKeys(0, st.Len(), nil)...)
		out = append(out, st.ReadValues(0, st.Len(), nil)...)
	}
	tok := tokens[len(tokens)-1]
	for step := 0; step < decodeSteps; step++ {
		dl := seq.Decode(tok)
		out = append(out, dl...)
		tok = argmax(dl)
	}
	return out
}

// TestPrefillConformanceWithoutLogits locks the path every server prefill
// takes (no per-position logits) against the all-rows path the other suites
// check: at every pool width and at prompt lengths around the query block and
// the pool's grain, both arms return the same hidden state and leave the same
// K/V and the same next decode logits, bit for bit.
func TestPrefillConformanceWithoutLogits(t *testing.T) {
	m := New(DefaultConfig())
	r := rng.New(17)
	for _, n := range []int{1, 2, 7, 8, 9, 63, 64, 65, 200} {
		tokens := make([]int, n)
		for i := range tokens {
			tokens[i] = r.Intn(m.cfg.VocabSize)
		}
		for _, width := range prefillWidths {
			withPoolWidth(t, width, func() {
				want := prefillArmFingerprint(m.NewSequence(nil, 0), tokens, true, 4)
				got := prefillArmFingerprint(m.NewSequence(nil, 0), tokens, false, 4)
				sameBits(t, fmt.Sprintf("n=%d width=%d: nil logits vs logits", n, width), got, want)
			})
		}
	}
}

// TestPrefillHitWithoutLogitsMatchesLogitsArm is the same lock on the path a
// prefix hit takes: a 1- and a 32-token suffix prefilled on a fork of a
// 1024-token document's snapshot.
func TestPrefillHitWithoutLogitsMatchesLogitsArm(t *testing.T) {
	m := New(DefaultConfig())
	r := rng.New(19)
	const docLen = 1024
	tokens := make([]int, docLen+32)
	for i := range tokens {
		tokens[i] = r.Intn(m.cfg.VocabSize)
	}
	base := m.NewSequence(nil, 0)
	base.Prefill(tokens[:docLen], nil)
	snap := base.Snapshot()
	for _, n := range []int{1, 32} {
		suffix := tokens[docLen : docLen+n]
		for _, width := range prefillWidths {
			withPoolWidth(t, width, func() {
				want := prefillArmFingerprint(m.NewSequenceFrom(snap, nil, 0), suffix, true, 4)
				got := prefillArmFingerprint(m.NewSequenceFrom(snap, nil, 0), suffix, false, 4)
				sameBits(t, fmt.Sprintf("suffix %d, width %d: nil logits vs logits", n, width), got, want)
			})
		}
	}
}
