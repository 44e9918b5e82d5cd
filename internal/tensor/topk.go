package tensor

import "sort"

// TopK returns the indices of the k largest values in x, ordered by
// descending value (ties broken by ascending index so results are
// deterministic). If k >= len(x) it returns all indices sorted by value.
// k <= 0 returns an empty, non-nil slice.
func TopK(x []float32, k int) []int {
	if k <= 0 {
		return []int{}
	}
	if k > len(x) {
		k = len(x)
	}
	// Maintain a min-heap of size k over (value, index).
	type vi struct {
		v float32
		i int
	}
	h := make([]vi, 0, k)
	less := func(a, b vi) bool {
		// heap orders by "smallest kept": smaller value first; for equal
		// values the LARGER index is "smaller" so the smaller index wins.
		if a.v != b.v {
			return a.v < b.v
		}
		return a.i > b.i
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	for i, v := range x {
		e := vi{v, i}
		if len(h) < k {
			h = append(h, e)
			up(len(h) - 1)
			continue
		}
		if less(h[0], e) {
			h[0] = e
			down(0)
		}
	}
	// Extract and sort descending by value, ascending index on ties.
	out := make([]int, len(h))
	sort.Slice(h, func(a, b int) bool {
		if h[a].v != h[b].v {
			return h[a].v > h[b].v
		}
		return h[a].i < h[b].i
	})
	for i, e := range h {
		out[i] = e.i
	}
	return out
}

// ArgsortDesc returns the permutation that sorts x in descending order,
// breaking ties by ascending index.
func ArgsortDesc(x []float32) []int {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return x[idx[a]] > x[idx[b]]
	})
	return idx
}

// ArgMax returns the index of the largest element (first on ties).
// It panics on an empty slice.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}
