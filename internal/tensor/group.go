package tensor

import "math"

// Group kernels of decode attention over shared pages (DESIGN.md §12): the
// queries of several streams that hold the same leading K/V pages attend
// those pages in one pass. GroupDot scores a K page with its keys in the
// vector lanes and the members' queries broadcast, so the page is transposed
// once for up to eight members; GroupAddScaled loads each value row once and
// adds it into every member's outputs, one chain per member. Between the two
// the members' rows take SoftmaxRows, two at a time. Each member's scores,
// exps, sum and outputs are what DotRows, Softmax and AddScaledRows give it
// alone, to the bit.

// KeyLanes is GroupDot's scratch: a K page transposed into tiles of keys,
// channel-major, so one channel of a tile's keys is one vector. A KeyLanes
// reuses its buffer, so a warm one allocates nothing; it is not safe for
// concurrent use.
type KeyLanes struct {
	kt []float32
}

// GroupDot scores every member's query against the m keys of every page:
// dst[g][p·m+i] = scale·<q[g], pages[p][i·d:][:d]>, which is
// DotRows(dst[g][p·m:][:m], q[g], pages[p], d, scale) to the bit (channels
// ascending from +0, then the scale). Each page is transposed once for up to
// eight members.
func (kl *KeyLanes) GroupDot(dst, q, pages [][]float32, m, d int, scale float32) {
	if len(dst) != len(q) || m < 1 || d < 1 {
		panic("tensor: GroupDot shape mismatch")
	}
	for g := range q {
		if len(q[g]) != d || len(dst[g]) < len(pages)*m {
			panic("tensor: GroupDot shape mismatch")
		}
	}
	for _, keys := range pages {
		if len(keys) < m*d {
			panic("tensor: GroupDot page too short")
		}
	}
	groupDot(kl, dst, q, pages, m, d, scale)
}

// GroupAddScaled adds the m value rows of every page into every member's
// outputs at the member's weights: out[g] += Σ_p Σ_i w[g][p·m+i]·pages[p][i·d:][:d],
// pages and rows ascending, which is AddScaledRows(out[g], w[g][p·m:][:m],
// pages[p], d) for p ascending, to the bit. Each value row is loaded once for
// every member.
func GroupAddScaled(out, w, pages [][]float32, m, d int) {
	if len(out) != len(w) || m < 1 || d < 1 {
		panic("tensor: GroupAddScaled shape mismatch")
	}
	for g := range out {
		if len(out[g]) != d || len(w[g]) < len(pages)*m {
			panic("tensor: GroupAddScaled shape mismatch")
		}
	}
	for _, vals := range pages {
		if len(vals) < m*d {
			panic("tensor: GroupAddScaled page too short")
		}
	}
	groupAddScaled(out, w, pages, m, d)
}

// rowMaxGo returns Softmax's max of x and whether every element is finite;
// an empty x is not.
func rowMaxGo(x []float32) (float32, bool) {
	if len(x) == 0 {
		return 0, false
	}
	m, finite := x[0], true
	for _, v := range x {
		if v > m {
			m = v
		}
		if math.Float32bits(v)&0x7fffffff >= 0x7f800000 {
			finite = false
		}
	}
	return m, finite
}

// groupDotGo is the scalar GroupDot loop: each member's DotRows loop.
func groupDotGo(dst, q, pages [][]float32, m, d int, scale float32) {
	for p, keys := range pages {
		for g := range q {
			dotRowsGo(dst[g][p*m:(p+1)*m], q[g], keys, d, scale)
		}
	}
}

// expSumGo turns x into its exps less max and returns sum plus them, added
// in order: Softmax's exp loop.
func expSumGo(x []float32, max, sum float32) float32 {
	for i, v := range x {
		e := float32(math.Exp(float64(v - max)))
		x[i] = e
		sum += e
	}
	return sum
}

// groupAddScaledGo is the scalar GroupAddScaled loop: each member's
// AddScaledRows loop, page by page.
func groupAddScaledGo(out, w, pages [][]float32, m, d int) {
	for p, vals := range pages {
		for g := range out {
			addScaledRowsGo(out[g], w[g][p*m:(p+1)*m], vals, d)
		}
	}
}
