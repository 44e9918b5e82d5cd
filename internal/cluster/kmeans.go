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

// Init selects the centroid initialisation strategy.
type Init int

const (
	// RandomInit samples c distinct keys uniformly (the paper's choice:
	// "we first randomly sample key vectors as the initial centroids").
	RandomInit Init = iota
	// PlusPlusInit is k-means++ seeding: subsequent centroids are sampled
	// proportionally to their distance from the chosen set. Slower to seed
	// (O(n·c·d)) but converges in fewer iterations — an extension ablation
	// beyond the paper.
	PlusPlusInit
)

// Config controls K-means behaviour.
type Config struct {
	// Metric is the assignment distance (default Cosine).
	Metric Metric
	// MaxIters caps the assignment/update alternation. The algorithm also
	// stops as soon as an assignment pass changes no labels. Zero means the
	// package default (16).
	MaxIters int
	// Init is the centroid initialisation strategy (default RandomInit).
	Init Init
	// Seed drives the deterministic centroid initialisation.
	Seed uint64
}

const defaultMaxIters = 16

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

	// Initial centroids.
	cents := tensor.NewMat(c, d)
	switch cfg.Init {
	case PlusPlusInit:
		seedPlusPlus(cents, keys, d, cfg.Metric, rnd)
	default:
		for i, idx := range rnd.Sample(n, c) {
			copy(cents.Row(i), key(idx))
		}
	}

	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	sizes := make([]int, c)

	pool := parallel.Default()
	// Shared fan-out policy: an assignment index costs c·d ops, a norm d.
	assignGrain := parallel.Grain(c * d)

	// Pre-normalised views for cosine assignment.
	var keyNorms []float32
	if cfg.Metric == Cosine {
		keyNorms = make([]float32, n)
		pool.For(n, parallel.Grain(d), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				keyNorms[i] = tensor.Norm(key(i))
			}
		})
	}
	centNorm := make([]float32, c)

	// Scratch for the deterministic parallel update step: members of each
	// cluster in ascending key order (rebuilt per iteration).
	sortedIdx := make([]int, n)
	prefix := make([]int, c+1)
	cursor := make([]int, c)

	var assignOps int64
	iters := 0
	for iter := 0; iter < maxIters; iter++ {
		iters++
		if cfg.Metric == Cosine {
			for j := 0; j < c; j++ {
				centNorm[j] = tensor.Norm(cents.Row(j))
			}
		}
		// Assignment, key-parallel: each labels[i] is an independent argbest
		// over read-only centroids, so any split is bit-identical to serial.
		// The changed counter is an integer (exact, order-free) accumulated
		// once per block — no atomics ever touch float data.
		var changed atomic.Int64
		pool.For(n, assignGrain, func(lo, hi int) {
			blockChanged := 0
			// Cosine and inner-product assignment score a key against every
			// centroid with one DotRows (each dots[j] is tensor.Dot(ki,
			// centroid j) to the bit), then take the arg-best.
			var dots []float32
			if cfg.Metric != L2 {
				dots = make([]float32, c)
			}
			for i := lo; i < hi; i++ {
				ki := key(i)
				best, bestScore := 0, float32(math.Inf(-1))
				switch cfg.Metric {
				case Cosine:
					kn := keyNorms[i]
					tensor.DotRows(dots, ki, cents.Data, d, 1)
					for j, dot := range dots {
						den := kn * centNorm[j]
						var s float32
						if den > 0 {
							s = dot / den
						}
						if s > bestScore {
							bestScore, best = s, j
						}
					}
				case L2:
					bestScore = float32(math.Inf(1))
					for j := 0; j < c; j++ {
						s := tensor.SqDist(ki, cents.Row(j))
						if s < bestScore {
							bestScore, best = s, j
						}
					}
				case InnerProduct:
					tensor.DotRows(dots, ki, cents.Data, d, 1)
					for j, s := range dots {
						if s > bestScore {
							bestScore, best = s, j
						}
					}
				}
				if labels[i] != best {
					labels[i] = best
					blockChanged++
				}
			}
			if blockChanged > 0 {
				changed.Add(int64(blockChanged))
			}
		})
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
		// paper §IV-B). Parallel over clusters: each centroid accumulates its
		// members in ascending key order — the exact order of the serial
		// accumulate-and-divide — so the update is bit-identical at any
		// worker count. The member lists come from a serial counting sort.
		sortByLabel(labels, sizes, prefix, cursor, sortedIdx)
		pool.For(c, parallel.Grain(d*(n/c+1)), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				row := cents.Row(j)
				tensor.Fill(row, 0)
				for _, i := range sortedIdx[prefix[j]:prefix[j+1]] {
					tensor.Axpy(1, key(i), row)
				}
				if sizes[j] > 0 {
					tensor.Scale(1/float32(sizes[j]), row)
				}
			}
		})
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
