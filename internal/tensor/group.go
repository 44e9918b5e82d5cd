package tensor

import "math"

// Group kernels of decode attention over shared pages (DESIGN.md §12): the
// queries of several streams that hold the same leading K/V pages attend
// those pages in one pass. GroupDot scores a K page with its keys in the
// vector lanes and the members' queries broadcast, so the page is transposed
// once for up to eight members; SoftmaxRows runs the members' exp sums side by
// side, each its own serial chain in key order; GroupAddScaled loads each
// value row once and adds it into every member's outputs, one chain per
// member. Each member's scores, exps, sum and outputs are what DotRows,
// Softmax and AddScaledRows give it alone, to the bit.

// groupMax is the most members one kernel call takes; longer groups go in
// calls of groupMax.
const groupMax = 8

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

// SoftmaxRows is Softmax on every row of rows, to the bit, the rows' exp
// sums side by side: over the rows' common length the group exp kernel adds
// each row's exps to its own sum in key order, the rows' chains in the lanes
// of one register, and each row's remaining elements continue its chain. A
// row with a NaN or ±Inf, where Softmax is the scalar loop, takes Softmax
// itself.
func SoftmaxRows(rows [][]float32) {
	var mx, sum [groupMax]float32
	var live [groupMax][]float32
	for g0 := 0; g0 < len(rows); g0 += groupMax {
		k, n := 0, 0
		for _, row := range rows[g0:min(g0+groupMax, len(rows))] {
			m, ok := rowMax(row)
			if !ok {
				Softmax(row)
				continue
			}
			if k == 0 || len(row) < n {
				n = len(row)
			}
			live[k], mx[k], sum[k] = row, m, 0
			k++
		}
		if k == 0 {
			continue
		}
		groupExpSum(live[:k], n, mx[:k], sum[:k])
		for j, row := range live[:k] {
			scaleRow(row, 1/expSumRow(row[n:], mx[j], sum[j]))
		}
	}
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

// groupExpSumGo is the scalar exp-sum loop: for every row g and i < n,
// rows[g][i] = float32(math.Exp(float64(rows[g][i] − max[g]))), added to
// sum[g] in order.
func groupExpSumGo(rows [][]float32, n int, max, sum []float32) {
	for g, row := range rows {
		sum[g] = expSumGo(row[:n], max[g], sum[g])
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
