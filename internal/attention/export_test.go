package attention

import "clusterkv/internal/kvcache"

// FullRows is FullBlock on its row-major walk whatever the CPU, so tests run
// the dispatch the score tile replaces on the same machine.
func (sc *Scratch) FullRows(out, q []float32, stride int, s *kvcache.Store, n0, nq int) {
	sc.fullRows(out, q, stride, s, n0, nq)
}
