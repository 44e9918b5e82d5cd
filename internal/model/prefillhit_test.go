package model

import (
	"fmt"
	"testing"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
)

// prefillObservables is everything a prefill leaves behind: per-position
// logits, the last hidden state and the K/V rows from position `from` on.
func prefillObservables(seq *Sequence, tokens []int, from int) []float32 {
	cfg := seq.m.cfg
	logits := make([]float32, len(tokens)*cfg.VocabSize)
	last := seq.Prefill(tokens, logits)
	out := append(logits, last...)
	for _, st := range seq.stores {
		out = append(out, st.ReadKeys(from, st.Len(), nil)...)
		out = append(out, st.ReadValues(from, st.Len(), nil)...)
	}
	return out
}

// TestPrefillHitMatchesColdAndSerialOracle locks the query-block prefill on
// the path a prefix hit takes: a suffix prefilled on a fork of a cached
// document returns, at every pool width, the bits of the cold prefill of
// document + suffix, and its per-position logits are those of stepping the
// suffix one token at a time through the serial oracle — whose attention is
// one Full call per (position, head), what Prefill ran before it attended in
// query blocks. Suffix lengths sit below, at and across the query block and
// the pool's grain; the document ends inside a page.
func TestPrefillHitMatchesColdAndSerialOracle(t *testing.T) {
	m := New(DefaultConfig())
	cfg := m.Config()
	r := rng.New(13)
	const docLen = 200
	tokens := make([]int, docLen+37)
	for i := range tokens {
		tokens[i] = r.Intn(cfg.VocabSize)
	}
	doc := tokens[:docLen]
	base := m.NewSequence(nil, 0)
	base.Prefill(doc, nil)
	snap := base.Snapshot()

	for _, n := range []int{1, 5, prefillQueryBlock, 32, 37} {
		suffix := tokens[docLen : docLen+n]
		var cold []float32
		{
			seq := m.NewSequence(nil, 0)
			all := prefillObservables(seq, tokens[:docLen+n], docLen)
			cold = all[docLen*cfg.VocabSize:] // the suffix's logits onward
		}
		oracle := newSerialOracle(m.NewSequenceFrom(snap, nil, 0))
		serial := make([]float32, n*cfg.VocabSize)
		for i, tok := range suffix {
			oracle.decodeInto(tok, serial[i*cfg.VocabSize:(i+1)*cfg.VocabSize])
		}
		for _, width := range prefillWidths {
			pool := parallel.NewPool(width)
			old := parallel.SetDefault(pool)
			got := prefillObservables(m.NewSequenceFrom(snap, nil, 0), suffix, docLen)
			parallel.SetDefault(old)
			pool.Close()
			what := fmt.Sprintf("suffix %d, width %d", n, width)
			sameBits(t, what+": hit vs cold prefill", got, cold)
			sameBits(t, what+": hit vs serial oracle logits", got[:len(serial)], serial)
		}
	}
}
