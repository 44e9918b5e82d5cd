package tensor

import "math"

// TileLanes is how many queries one ScoreTile holds: one per lane of a
// 16-float vector.
const TileLanes = 16

// ScoreTile is causal attention for a block of up to TileLanes consecutive
// prefill queries, laid out key-major (DESIGN.md §12): the scores are a tile
// of rows, one per key, each holding that key's score for every query in its
// lanes, so lane j is query j all the way through. The score kernel keeps Qᵀ
// one channel per vector and multiplies each key channel in by broadcast, so
// no key row is transposed; the softmax adds each lane's exps in key order,
// sixteen serial sums side by side; the weighted sum holds one vector per
// output channel and is transposed once, when the block is stored.
//
// Query j sees the first n0+j keys. Each of its scores, its max, exps and sum
// and each output element go through FullN's operations in FullN's order
// (channels ascending from +0 then the scale, keys ascending), so the tile is
// bit-identical to FullN per query for finite inputs. A key query j does not
// see scores -Inf in its lane, stays out of its max, adds an exact 0 to its
// sum, and its value row is not added into the lane's outputs, so a NaN or
// ±Inf in that row leaves the query's output as FullN leaves it. A query
// whose scores hold a NaN or ±Inf, where FullN's softmax is the scalar loop,
// is not stored: Store reports it and the caller attends it with FullN.
//
// One block is Start, Dot over the span's keys in order, Softmax, AddScaled
// over the same keys in order, Store. The vector kernels run where
// tileKernels holds, their scalar loops elsewhere; a ScoreTile reuses its
// buffers, so a warm one allocates nothing. It is not safe for concurrent
// use.
type ScoreTile struct {
	qt   []float32 // Qᵀ: channel c of query j at c·TileLanes+j
	rows []float32 // scores, then exps: key i of query j at i·TileLanes+j
	acc  []float32 // outputs: channel c of query j at c·TileLanes+j
	st   tileState
	inv  [TileLanes]float32 // 1/sum per lane

	d, nq, n0   int
	scored, sum int // keys through Dot and through AddScaled
	scale       float32
}

// tileState is the per-lane state the kernels carry across calls, in the
// layout the assembly reads: the running max of the scores a lane sees, and
// the lanes' exp sums.
type tileState struct {
	max [TileLanes]float32
	sum [TileLanes]float32
}

// TileRuns reports whether a block of nq queries of head dim d goes through
// the score tile on this CPU and build: the tile kernels run (tileKernels)
// and the block has more than one query, a lone query being FullN's.
func TileRuns(d, nq int) bool { return tileKernels(d) && nq > 1 }

// tileKernels reports whether the tile kernels run for head dim d: the
// vector path (their 16-lane form where the CPU has AVX-512F, the AVX2 one
// on YMM halves elsewhere), and d a multiple of 4.
func tileKernels(d int) bool { return useVec && d > 0 && d%4 == 0 }

// AVX512 reports whether this binary runs the AVX-512 kernels at all: the
// CPU has them and the build lacks the noavx512 tag. SetAVX512 turns them
// off, or back on where AVX512 holds, and reports whether they were on, so
// tests check the AVX2 kernels, the score tile's among them, on an AVX-512
// host too. No output depends on it; it must not be called while kernels
// run.
var AVX512 = cpuAVX512

func SetAVX512(on bool) (was bool) { return setAVX512(on) }

// TileDot writes the dot product of each of the m rows rows[i·d:][:d] with
// each of a tile's TileLanes lane vectors, lane j's channel c at
// lanes[c·TileLanes+j], to dst[i·TileLanes+j]. It is the score kernel of
// ScoreTile with no lane masked and scale 1: channels ascending from +0,
// then ×1, so each element is Dot(lane j, row i) to the bit. K-means scores
// a tile of keys against its centroids with it.
func TileDot(dst, lanes, rows []float32, m, d int) {
	if m < 1 || d < 1 || len(dst) < m*TileLanes || len(lanes) < d*TileLanes || len(rows) < m*d {
		panic("tensor: TileDot shape mismatch")
	}
	// The running max is not wanted: starting it at +Inf, which no finite
	// score replaces, spares the scalar loop its updates.
	var st tileState
	for j := range st.max {
		st.max[j] = float32(math.Inf(1))
	}
	tileDot(dst, lanes, rows, m, d, 1, -m, &st)
}

// Start begins a block of nq queries, query j being q[j·stride:][:d] and
// seeing the first n0+j keys, at score scale. 1 ≤ nq ≤ TileLanes, n0 ≥ 1.
// The queries are copied, so the outputs may overwrite them.
func (t *ScoreTile) Start(q []float32, stride, nq, d, n0 int, scale float32) {
	if nq < 1 || nq > TileLanes || n0 < 1 || d < 1 || len(q) < (nq-1)*stride+d {
		panic("tensor: ScoreTile.Start shape mismatch")
	}
	t.d, t.nq, t.n0, t.scale = d, nq, n0, scale
	t.scored, t.sum = 0, 0
	t.qt = growFloats(t.qt, d*TileLanes)
	for c := 0; c < d; c++ {
		lanes := t.qt[c*TileLanes : (c+1)*TileLanes]
		for j := range lanes {
			lanes[j] = 0
			if j < nq {
				lanes[j] = q[j*stride+c]
			}
		}
	}
	t.rows = growFloats(t.rows, t.Span()*TileLanes)
	t.st = tileState{}
	for j := range t.st.max {
		t.st.max[j] = float32(math.Inf(-1))
	}
}

// Span is the number of keys the block attends: n0+nq−1, all the last
// query sees.
func (t *ScoreTile) Span() int { return t.n0 + t.nq - 1 }

// Dot scores the next m keys, keys[i·d:][:d] for i < m.
func (t *ScoreTile) Dot(keys []float32, m int) {
	if m < 1 || t.scored+m > t.Span() || len(keys) < m*t.d {
		panic("tensor: ScoreTile.Dot past the span")
	}
	// vis is one past the last lane that does not see the first key: key i
	// (from 0) is hidden from the queries j ≤ i−n0.
	tileDot(t.rows[t.scored*TileLanes:(t.scored+m)*TileLanes], t.qt, keys, m, t.d, t.scale, t.scored-t.n0+1, &t.st)
	t.scored += m
}

// Softmax turns every lane's scores into its exps and their serial sum, once
// Dot has scored the whole span.
func (t *ScoreTile) Softmax() {
	span := t.Span()
	if t.scored != span {
		panic("tensor: ScoreTile.Softmax before the span is scored")
	}
	tileExpSum(t.rows[:span*TileLanes], span, &t.st)
	for j, s := range t.st.sum {
		t.inv[j] = 1 / s
	}
	t.acc = growFloats(t.acc, t.d*TileLanes)
	Fill(t.acc, 0)
}

// AddScaled adds the next m value rows, vals[i·d:][:d] for i < m, into the
// output of every lane that sees the row, at that lane's softmax weight for
// it.
func (t *ScoreTile) AddScaled(vals []float32, m int) {
	if m < 1 || t.sum+m > t.scored || len(vals) < m*t.d {
		panic("tensor: ScoreTile.AddScaled past the scored keys")
	}
	tileAxpy(t.acc, t.rows[t.sum*TileLanes:(t.sum+m)*TileLanes], &t.inv, vals, m, t.d, t.sum-t.n0+1)
	t.sum += m
}

// Store writes query j's output to out[j·stride:][:d] for every query whose
// scores were all finite, and returns the others as a bit set (bit j for
// query j), whose outputs it leaves untouched.
func (t *ScoreTile) Store(out []float32, stride int) (nonFinite uint32) {
	if t.sum != t.Span() {
		panic("tensor: ScoreTile.Store before every value row is added")
	}
	if len(out) < (t.nq-1)*stride+t.d {
		panic("tensor: ScoreTile.Store outputs too short")
	}
	for j := 0; j < t.nq; j++ {
		// A NaN or +Inf score, or only -Inf ones, make the lane's sum NaN,
		// and a -Inf score among finite ones has FullN's bits already: its
		// exp is 0 on either path.
		if s := t.st.sum[j]; s != s {
			nonFinite |= 1 << j
			continue
		}
		row := out[j*stride : j*stride+t.d]
		for c := range row {
			row[c] = t.acc[c*TileLanes+j]
		}
	}
	return nonFinite
}

// Query copies query j of the block into dst[:d].
func (t *ScoreTile) Query(dst []float32, j int) {
	for c := range dst[:t.d] {
		dst[c] = t.qt[c*TileLanes+j]
	}
}

func growFloats(buf []float32, n int) []float32 {
	if cap(buf) < n {
		buf = make([]float32, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// tileDotGo is the scalar score-kernel loop: rows[i·TileLanes+j] is key i's
// score for lane j, channels ascending from +0, then the scale; lanes below
// vis+i do not see key i and score -Inf, the others update their max (a
// score the max is not above replaces it, as VMAXPS does). Eight lanes' sums
// run side by side, each its own chain.
func tileDotGo(rows, qt, keys []float32, m, d int, scale float32, vis int, st *tileState) {
	for i := range m {
		key, row := keys[i*d:i*d+d], rows[i*TileLanes:(i+1)*TileLanes]
		for j := 0; j < TileLanes; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for c, k := range key {
				q := (*[8]float32)(qt[c*TileLanes+j:])
				s0 = FMA32(q[0], k, s0)
				s1 = FMA32(q[1], k, s1)
				s2 = FMA32(q[2], k, s2)
				s3 = FMA32(q[3], k, s3)
				s4 = FMA32(q[4], k, s4)
				s5 = FMA32(q[5], k, s5)
				s6 = FMA32(q[6], k, s6)
				s7 = FMA32(q[7], k, s7)
			}
			*(*[8]float32)(row[j:]) = [8]float32{s0 * scale, s1 * scale, s2 * scale, s3 * scale, s4 * scale, s5 * scale, s6 * scale, s7 * scale}
		}
		for j, s := range row {
			if j < vis+i {
				row[j] = float32(math.Inf(-1))
			} else if !(st.max[j] > s) {
				st.max[j] = s
			}
		}
	}
}

// tileExpSumGo is the scalar softmax-kernel loop: every score becomes
// float32(math.Exp(float64(score − its lane's max))), added to its lane's
// sum in key order.
func tileExpSumGo(rows []float32, m int, st *tileState) {
	for i := 0; i < m; i++ {
		for j := 0; j < TileLanes; j++ {
			e := float32(math.Exp(float64(rows[i*TileLanes+j] - st.max[j])))
			rows[i*TileLanes+j] = e
			st.sum[j] += e
		}
	}
}

// tileAxpyGo is the scalar weighted-sum loop: for keys i ascending, lane j's
// weight p = e·inv[j] times value row i is added into lane j's outputs; lanes
// below vis+i do not see key i and are left as they are.
func tileAxpyGo(acc, rows []float32, inv *[TileLanes]float32, vals []float32, m, d, vis int) {
	for i := 0; i < m; i++ {
		for j := max(vis+i, 0); j < TileLanes; j++ {
			p := rows[i*TileLanes+j] * inv[j]
			for c := 0; c < d; c++ {
				acc[c*TileLanes+j] = FMA32(p, vals[i*d+c], acc[c*TileLanes+j])
			}
		}
	}
}
