// Package cluster implements semantic clustering of key vectors (paper
// §III-B) and the clustering metadata used by selection and indexing (paper
// §IV-C, Fig. 8): cluster sizes, prefix sums and member indices sorted by
// cluster label.
//
// The clustering algorithm is K-means with a configurable distance:
// cosine (the paper's choice), L2, or inner product (the Fig. 11b ablations).
// Initial centroids are sampled from the data; assignment and update steps
// alternate until the assignment is stable or an iteration cap is reached.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// Metric selects the semantic distance used for K-means assignment.
type Metric int

const (
	// Cosine assigns each key to the centroid with the largest cosine
	// similarity: D(i,j) = 1 - <k_i,k_j>/(|k_i||k_j|). The paper's default.
	Cosine Metric = iota
	// L2 assigns to the centroid with the smallest Euclidean distance.
	L2
	// InnerProduct assigns to the centroid with the largest dot product.
	InnerProduct
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case L2:
		return "l2"
	case InnerProduct:
		return "inner-product"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Config controls K-means behaviour.
type Config struct {
	// Metric is the assignment distance (default Cosine).
	Metric Metric
	// MaxIters caps the assignment/update alternation. The algorithm also
	// stops as soon as an assignment pass changes no labels. Zero means the
	// package default (16).
	MaxIters int
	// Seed drives the deterministic centroid initialisation.
	Seed uint64
}

const defaultMaxIters = 16

// lanes is the keys of one key tile: cosine and inner-product assignment
// score a tile's keys, one per lane, against every centroid at once.
const lanes = tensor.TileLanes

// assignBlocks is the most blocks an assignment pass over key tiles splits
// into: each block scores into its own c×lanes rows of the call's scratch.
const assignBlocks = 16

// scratch is one call's working memory, kept in scratches for the next
// calls, so only the Result allocates what grows with n: the key tiles —
// tile t's channel c of key t·lanes+j at tiles[t·d·lanes + c·lanes + j] —
// and the c×lanes score rows of every assignment block, the key norms and
// the unit norms of inner-product assignment.
type scratch struct {
	tiles, scores, norms, ones []float32
}

// scratches holds the scratch of up to eight finished calls: a prefill runs
// its KMeans calls one after another, so eight outnumbers the prefills that
// run at once, and it bounds the memory kept between calls. It is a channel
// rather than a sync.Pool, which under the race detector drops a share of
// its Puts at random: a call allocates the same in every build.
var scratches = make(chan *scratch, 8)

// resize returns buf with length n, reallocated only if it is too short.
func resize[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// Result is the outcome of clustering n keys into c clusters, including the
// Fig. 8 metadata. Token indices inside Result are *local* to the clustered
// slice: 0..n-1. Book offsets them to absolute positions.
type Result struct {
	// Centroids is the c×d matrix of cluster representations.
	Centroids *tensor.Mat
	// Labels[i] is the cluster of key i, in [0, c).
	Labels []int
	// Sizes[j] is the member count of cluster j. Every cluster is non-empty.
	Sizes []int
	// SortedIndices lists key indices sorted by (label, index): the members
	// of cluster j are SortedIndices[PrefixSum[j]:PrefixSum[j+1]].
	SortedIndices []int
	// PrefixSum has length c+1 with PrefixSum[0] = 0 and
	// PrefixSum[j+1]-PrefixSum[j] == Sizes[j].
	PrefixSum []int
	// Iters is the number of assignment passes executed.
	Iters int
	// AssignOps counts score-dimension operations performed (iters×n×c×d),
	// the quantity the cost model charges for clustering (§III-D Concern 1).
	AssignOps int64
}

// KMeans clusters the n keys packed row-major in keys (n = len(keys)/d) into
// at most c clusters and returns the result with Fig. 8 metadata. If c >= n
// every key gets its own cluster. c must be >= 1 and n >= 1.
func KMeans(keys []float32, d, c int, cfg Config) *Result {
	n := len(keys) / d
	if len(keys)%d != 0 {
		panic("cluster: keys length not a multiple of d")
	}
	if n == 0 {
		panic("cluster: KMeans over zero keys")
	}
	if c < 1 {
		panic("cluster: KMeans with c < 1")
	}
	if c > n {
		c = n
	}
	maxIters := cfg.MaxIters
	if maxIters <= 0 {
		maxIters = defaultMaxIters
	}
	rnd := rng.New(cfg.Seed)

	key := func(i int) []float32 { return keys[i*d : (i+1)*d] }

	// Initial centroids: c distinct keys sampled uniformly ("we first
	// randomly sample key vectors as the initial centroids", §III-B).
	cents := tensor.NewMat(c, d)
	for i, idx := range rnd.Sample(n, c) {
		copy(cents.Row(i), key(idx))
	}

	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	sizes := make([]int, c)

	pool := parallel.Default()
	var sc *scratch
	select {
	case sc = <-scratches:
	default:
		sc = new(scratch)
	}
	defer func() {
		select {
		case scratches <- sc:
		default:
		}
	}()

	// The unit norms turn the cosine arg-best into the inner-product one
	// (dot/1 is exact).
	sc.norms = resize(sc.norms, n+c)
	keyNorms, centNorm := sc.norms[:n], sc.norms[n:]
	if cfg.Metric == InnerProduct {
		sc.ones = resize(sc.ones, n)
		tensor.Fill(sc.ones, 1)
		keyNorms, centNorm = sc.ones, sc.ones[:c]
	}

	// Assignment, parallel over tiles of lanes keys: each labels[i] is an
	// independent arg-best over read-only centroids, so any split is
	// bit-identical to serial. The changed counter is an integer (exact,
	// order-free) accumulated once per block — no atomics ever touch float
	// data. Cosine and inner product score a whole tile at a time, the keys
	// in the lanes and each centroid channel broadcast (tensor.TileDot, the
	// score tile's dot), so every score is tensor.Dot(k_i, c_j) to the bit:
	// the keys are laid out channel-major once a call, the last tile
	// zero-padded, and a block of tiles scores into its own c×lanes rows,
	// which feed the arg-best at stride lanes. The same pass takes the
	// cosine's key norms, tensor.Norm's sums four keys side by side.
	units := (n + lanes - 1) / lanes
	grain := max(parallel.Grain(c*d*lanes), (units+assignBlocks-1)/assignBlocks)
	var tiles, scores []float32
	if cfg.Metric != L2 {
		sc.tiles, sc.scores = resize(sc.tiles, units*d*lanes), resize(sc.scores, (units+grain-1)/grain*c*lanes)
		tiles, scores = sc.tiles, sc.scores
		norms := sc.norms[:n]
		pool.For(units, parallel.Grain(d*lanes), func(lo, hi int) {
			for t := lo; t < hi; t++ {
				tile := tiles[t*d*lanes : (t+1)*d*lanes]
				i0, k := t*lanes, min(lanes, n-t*lanes)
				if k < lanes {
					clear(tile)
				}
				j := 0
				for ; j+4 <= k; j += 4 {
					src := keys[(i0+j)*d : (i0+j+4)*d]
					k0, k1, k2, k3 := src[:d], src[d:2*d], src[2*d:3*d], src[3*d:]
					var s0, s1, s2, s3 float32
					for ch, v0 := range k0 {
						v1, v2, v3 := k1[ch], k2[ch], k3[ch]
						q := (*[4]float32)(tile[ch*lanes+j:])
						q[0], q[1], q[2], q[3] = v0, v1, v2, v3
						s0, s1, s2, s3 = s0+float32(v0*v0), s1+float32(v1*v1), s2+float32(v2*v2), s3+float32(v3*v3)
					}
					for r, s := range [4]float32{s0, s1, s2, s3} {
						norms[i0+j+r] = float32(math.Sqrt(float64(s)))
					}
				}
				for ; j < k; j++ {
					for ch, v := range key(i0 + j) {
						tile[ch*lanes+j] = v
					}
					norms[i0+j] = tensor.Norm(key(i0 + j))
				}
			}
		})
	}
	var changed atomic.Int64
	assign := func(lo, hi int) {
		var best [lanes]int
		blockChanged := 0
		for t := lo; t < hi; t++ {
			i0, k := t*lanes, min(lanes, n-t*lanes)
			if cfg.Metric == L2 {
				for j := range k {
					ki, bestScore := key(i0+j), float32(math.Inf(1))
					best[j] = 0
					for jc := 0; jc < c; jc++ {
						if s := tensor.SqDist(ki, cents.Row(jc)); s < bestScore {
							bestScore, best[j] = s, jc
						}
					}
				}
			} else {
				// Blocks hold at least grain tiles, so lo/grain is this
				// block's own.
				dots := scores[lo/grain*c*lanes:][:c*lanes]
				tensor.TileDot(dots, tiles[t*d*lanes:(t+1)*d*lanes], cents.Data, c, d)
				tensor.ArgBestCos(best[:k], dots, lanes, keyNorms[i0:i0+k], centNorm)
			}
			for j, b := range best[:k] {
				if labels[i0+j] != b {
					labels[i0+j] = b
					blockChanged++
				}
			}
		}
		if blockChanged > 0 {
			changed.Add(int64(blockChanged))
		}
	}
	var assignOps int64
	iters := 0
	for iter := 0; iter < maxIters; iter++ {
		iters++
		if cfg.Metric == Cosine {
			for j := 0; j < c; j++ {
				centNorm[j] = tensor.Norm(cents.Row(j))
			}
		}
		changed.Store(0)
		pool.For(units, grain, assign)
		for j := range sizes {
			sizes[j] = 0
		}
		for i := 0; i < n; i++ {
			sizes[labels[i]]++
		}
		assignOps += int64(n) * int64(c) * int64(d)

		// Repair empty clusters by stealing the key farthest from its
		// centroid among clusters with >1 member (deterministic scan).
		repairEmptyClusters(keys, d, cents, labels, sizes, cfg.Metric)

		// Update step: centroid = mean of members (the custom-kernel step of
		// paper §IV-B). Every key is added into its centroid in ascending
		// key order, the order of the serial accumulate-and-divide, so each
		// centroid is its members' sum in key order from +0, then ×1/size.
		// A cluster the repair could not fill stays at zero.
		clear(cents.Data)
		tensor.AddRowsByLabel(cents.Data, keys, labels, d)
		for j, sz := range sizes {
			if sz > 0 {
				tensor.Scale(1/float32(sz), cents.Row(j))
			}
		}
		if changed.Load() == 0 {
			break
		}
	}

	// The Fig. 8 metadata: one counting sort of the final labels.
	sortedIdx := make([]int, n)
	prefix := make([]int, c+1)
	sortByLabel(labels, sizes, prefix, make([]int, c), sortedIdx)
	return &Result{
		Centroids:     cents,
		Labels:        labels,
		Sizes:         sizes,
		SortedIndices: sortedIdx,
		PrefixSum:     prefix,
		Iters:         iters,
		AssignOps:     assignOps,
	}
}

// sortByLabel is the counting-sort construction of paper Fig. 8: prefix
// (len c+1) receives the per-label prefix sums and out (len n) the indices
// sorted by (label, index) — ascending i keeps members index-sorted.
// cursor (len c) is scratch.
func sortByLabel(labels, sizes, prefix, cursor, out []int) {
	prefix[0] = 0
	for j, sz := range sizes {
		prefix[j+1] = prefix[j] + sz
	}
	copy(cursor, prefix[:len(sizes)])
	for i, l := range labels {
		out[cursor[l]] = i
		cursor[l]++
	}
}

// repairEmptyClusters reassigns, for each empty cluster, the member that is
// farthest from its current centroid (among clusters of size ≥ 2).
func repairEmptyClusters(keys []float32, d int, cents *tensor.Mat, labels []int, sizes []int, metric Metric) {
	n := len(labels)
	for j := range sizes {
		if sizes[j] != 0 {
			continue
		}
		worst, worstScore := -1, float32(math.Inf(1))
		for i := 0; i < n; i++ {
			li := labels[i]
			if sizes[li] < 2 {
				continue
			}
			ki := keys[i*d : (i+1)*d]
			var s float32
			switch metric {
			case Cosine:
				s = tensor.CosineSim(ki, cents.Row(li))
			case L2:
				s = -tensor.SqDist(ki, cents.Row(li))
			case InnerProduct:
				s = tensor.Dot(ki, cents.Row(li))
			}
			// Lower similarity == farther from its centroid.
			if s < worstScore {
				worstScore, worst = s, i
			}
		}
		if worst < 0 {
			continue // all clusters singletons; nothing to steal
		}
		sizes[labels[worst]]--
		labels[worst] = j
		sizes[j] = 1
		copy(cents.Row(j), keys[worst*d:(worst+1)*d])
	}
}

// Members returns the (local) indices belonging to cluster j, aliasing the
// metadata storage.
func (r *Result) Members(j int) []int {
	return r.SortedIndices[r.PrefixSum[j]:r.PrefixSum[j+1]]
}

// NumClusters returns the number of clusters.
func (r *Result) NumClusters() int { return len(r.Sizes) }
