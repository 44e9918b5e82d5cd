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

// argBestGrain is the fewest keys an assignment block takes, so the vector
// arg-best runs on whole lane groups rather than on per-block tails.
const argBestGrain = 64

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
	// Shared fan-out policy: an assignment index costs c·d ops, a norm d.
	assignGrain := max(argBestGrain, parallel.Grain(c*d))

	// ones is the unit weight of every member in the update step and the
	// unit norm that turns the cosine arg-best into the inner-product one
	// (dot/1 is exact).
	ones := make([]float32, n)
	tensor.Fill(ones, 1)
	var keyNorms, centNorm []float32
	switch cfg.Metric {
	case Cosine:
		keyNorms = make([]float32, n)
		pool.For(n, parallel.Grain(d), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				keyNorms[i] = tensor.Norm(key(i))
			}
		})
		centNorm = make([]float32, c)
	case InnerProduct:
		keyNorms, centNorm = ones, ones[:c]
	}
	// Cosine and inner-product assignment scratch: the c×n score matrix
	// (row j holds every key's dot product with centroid j) and the new
	// labels.
	var scores []float32
	var next []int
	if cfg.Metric != L2 {
		scores = make([]float32, c*n)
		next = make([]int, n)
	}

	// Scratch for the deterministic parallel update step: members of each
	// cluster in ascending key order and their rows (rebuilt per iteration).
	sortedIdx := make([]int, n)
	members := make([]*float32, n)
	prefix := make([]int, c+1)
	cursor := make([]int, c)

	// Assignment, key-parallel: each labels[i] is an independent arg-best
	// over read-only centroids, so any split is bit-identical to serial.
	// The changed counter is an integer (exact, order-free) accumulated once
	// per block — no atomics ever touch float data.
	var changed atomic.Int64
	assign := func(lo, hi int) {
		blockChanged := 0
		if cfg.Metric == L2 {
			for i := lo; i < hi; i++ {
				ki := key(i)
				best, bestScore := 0, float32(math.Inf(1))
				for j := 0; j < c; j++ {
					if s := tensor.SqDist(ki, cents.Row(j)); s < bestScore {
						bestScore, best = s, j
					}
				}
				if labels[i] != best {
					labels[i] = best
					blockChanged++
				}
			}
		} else {
			// Centroid-major: the block's keys scored against every
			// centroid, the centroids being the queries of one
			// DotRowsBlock (each score is tensor.Dot(k_i, c_j) to the bit,
			// and a group of keys is transposed once per eight centroids),
			// then the arg-best over eight keys per lane group.
			tensor.DotRowsBlock(scores[lo:], n, cents.Data, d, c, keys[lo*d:hi*d], hi-lo, d, 1)
			tensor.ArgBestCos(next[lo:hi], scores[lo:], n, keyNorms[lo:hi], centNorm)
			for i := lo; i < hi; i++ {
				if labels[i] != next[i] {
					labels[i] = next[i]
					blockChanged++
				}
			}
		}
		if blockChanged > 0 {
			changed.Add(int64(blockChanged))
		}
	}
	// Update step: centroid = mean of members (the custom-kernel step of
	// paper §IV-B). Parallel over clusters: each centroid adds its members
	// in ascending key order — the exact order of the serial
	// accumulate-and-divide — so the update is bit-identical at any worker
	// count.
	update := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := cents.Row(j)
			tensor.Fill(row, 0)
			tensor.AddScaledRowsList(row, ones[:sizes[j]], members[prefix[j]:prefix[j+1]], d)
			if sizes[j] > 0 {
				tensor.Scale(1/float32(sizes[j]), row)
			}
		}
	}
	updateGrain := parallel.Grain(d * (n/c + 1))

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
		pool.For(n, assignGrain, assign)
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

		// The member lists come from a serial counting sort.
		sortByLabel(labels, sizes, prefix, cursor, sortedIdx)
		for k, i := range sortedIdx {
			members[k] = &keys[i*d]
		}
		pool.For(c, updateGrain, update)
		if changed.Load() == 0 {
			break
		}
	}

	// The last iteration's counting sort is computed from the final labels,
	// so its outputs are exactly the Fig. 8 metadata — hand them off instead
	// of re-deriving.
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
