package tensor

import (
	"sync"

	"clusterkv/internal/parallel"
)

// bandCall is one MatTMat call in a form Pool.Do can carry without a
// closure: the kernel runs several times per decode round, and a closure
// handed to Pool.For is heap-allocated on every call, which the steady-state
// zero-allocation decode contract (DESIGN.md §12) forbids at any pool width.
// The operands are Mat values, so a caller's one-row views (MatTVecOn) stay
// on its stack.
type bandCall struct {
	dst, m, x Mat
}

var bandCalls = sync.Pool{New: func() any { return new(bandCall) }}

// Run implements parallel.Body over column tiles [lo, hi) (matTMatSplit).
func (c *bandCall) Run(lo, hi int) {
	matTMatBand(&c.dst, &c.m, &c.x, lo*matTMatCols, min(hi*matTMatCols, c.m.Cols))
}

// on runs the call over [0, n) on p: directly when the pool would not fan it
// out, through a recycled heap copy otherwise.
func (c bandCall) on(p *parallel.Pool, n, grain int) {
	if p.RunsInline(n, grain) {
		c.Run(0, n)
		return
	}
	h := bandCalls.Get().(*bandCall)
	*h = c
	p.Do(n, grain, h)
	*h = bandCall{}
	bandCalls.Put(h)
}
