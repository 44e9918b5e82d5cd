package tensor

import (
	"sync"

	"clusterkv/internal/parallel"
)

// bandCall is one call of a banded decode-path kernel in a form Pool.Do can
// carry without a closure: these kernels run several times per decode round,
// and a closure handed to Pool.For is heap-allocated on every call, which the
// steady-state zero-allocation decode contract (DESIGN.md §12) forbids at any
// pool width. Only the operands of the chosen kernel are set.
type bandCall struct {
	kernel   bandKernel
	m        *Mat
	pm       *PackedMat
	dst, x   []float32   // vector kernels
	dstM, xM *Mat        // MatTMat
	dsts     [][]float32 // MatMulRows
}

type bandKernel uint8

const (
	bandMatVec bandKernel = iota
	bandMatTVec
	bandMatTMat
	bandPanel
	bandPanelRows
)

var bandCalls = sync.Pool{New: func() any { return new(bandCall) }}

// Run implements parallel.Body over the kernel's band index.
func (c *bandCall) Run(lo, hi int) {
	switch c.kernel {
	case bandMatVec:
		matVecBand(c.dst, c.m, c.x, lo, hi)
	case bandMatTVec:
		matTVecBand(c.dst, c.m, c.x, lo, hi)
	case bandMatTMat:
		matTMatBand(c.dstM, c.m, c.xM, lo, hi)
	case bandPanel:
		c.pm.panelBand(c.dst, c.x, lo, hi)
	case bandPanelRows:
		c.pm.panelBandRows(c.dsts, c.xM, lo, hi)
	}
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
