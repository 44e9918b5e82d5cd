package cluster

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// kmeansOracle is KMeans as it was before its assignment went
// centroid-major and its update through AddScaledRowsList: key-major
// assignment with a scalar arg-best per key and an Axpy per member. Every
// Result field of KMeans must equal this one's to the bit.
func kmeansOracle(keys []float32, d, c int, cfg Config) *Result {
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

// withPoolWidth runs fn on a default pool of the given width.
func withPoolWidth(width int, fn func()) {
	pool := parallel.NewPool(width)
	old := parallel.SetDefault(pool)
	defer func() {
		parallel.SetDefault(old)
		pool.Close()
	}()
	fn()
}

// expectSameResult fails unless got equals want in every field, centroids
// to the bit.
func expectSameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	eqInts := func(field string, a, b []int) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d, oracle %d", name, field, len(a), len(b))
		}
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d, oracle %d", name, field, i, a[i], b[i])
			}
		}
	}
	eqInts("Labels", got.Labels, want.Labels)
	eqInts("Sizes", got.Sizes, want.Sizes)
	eqInts("SortedIndices", got.SortedIndices, want.SortedIndices)
	eqInts("PrefixSum", got.PrefixSum, want.PrefixSum)
	if got.Iters != want.Iters || got.AssignOps != want.AssignOps {
		t.Fatalf("%s: iters %d, ops %d; oracle %d, %d", name, got.Iters, got.AssignOps, want.Iters, want.AssignOps)
	}
	if got.Centroids.Rows != want.Centroids.Rows || !bitsEq(got.Centroids.Data, want.Centroids.Data) {
		t.Fatalf("%s: centroid bits differ from the oracle", name)
	}
}

// oracleKeys returns n×d keys of one kind: "random" (loose clusters), "zero"
// (every key 0: each score takes the den = 0 arm, every key ties on centroid
// 0 and all other clusters need the empty-cluster repair) or "dup" (three
// distinct keys repeated: tied scores go to the lowest j, and duplicated
// initial centroids leave clusters empty).
func oracleKeys(kind string, n, d int) []float32 {
	r := rng.New(uint64(n*131 + d))
	keys := propKeys(r, n, d)
	switch kind {
	case "zero":
		tensor.Fill(keys, 0)
	case "dup":
		for i := 3; i < n; i++ {
			copy(keys[i*d:(i+1)*d], keys[(i%3)*d:(i%3+1)*d])
		}
	}
	return keys
}

// TestKMeansMatchesOracle locks KMeans to the key-major loop it replaced:
// the whole Result, at pool widths {1, 2, 3, 8}, for every metric, n over
// every residue mod 8 and across several assignment
// blocks, c ∈ {1, 4, 6, 51} and c ≥ n, head dims on and off the vector
// kernels' multiples, and all-zero and duplicated keys.
func TestKMeansMatchesOracle(t *testing.T) {
	type shape struct {
		n, d  int
		kinds []string
	}
	all := []string{"random", "zero", "dup"}
	var shapes []shape
	for n := 1; n <= 17; n++ {
		shapes = append(shapes, shape{n, 16, all})
	}
	shapes = append(shapes,
		shape{63, 16, all}, shape{130, 16, []string{"random", "dup"}}, shape{517, 16, []string{"random"}},
		shape{29, 5, []string{"random"}}, shape{200, 12, []string{"random", "dup"}})
	for _, sh := range shapes {
		var cs []int
		for _, c := range []int{1, 4, 6, 51} {
			if c < sh.n {
				cs = append(cs, c)
			}
		}
		if sh.n <= 63 { // c ≥ n: every key its own cluster
			cs = append(cs, sh.n, sh.n+3)
		}
		for _, kind := range sh.kinds {
			keys := oracleKeys(kind, sh.n, sh.d)
			for _, metric := range []Metric{Cosine, L2, InnerProduct} {
				for _, c := range cs {
					cfg := Config{Metric: metric, Seed: uint64(sh.n + c)}
					want := kmeansOracle(keys, sh.d, c, cfg)
					for _, width := range []int{1, 2, 3, 8} {
						var got *Result
						withPoolWidth(width, func() { got = KMeans(keys, sh.d, c, cfg) })
						name := fmt.Sprintf("%s %v n=%d d=%d c=%d width=%d", kind, metric, sh.n, sh.d, c, width)
						expectSameResult(t, name, got, want)
					}
				}
			}
		}
	}
}

// TestKMeansNoAllocsPerIteration pins that the scratch is per call: a run
// capped at three iterations allocates what a one-iteration run does.
func TestKMeansNoAllocsPerIteration(t *testing.T) {
	keys := oracleKeys("random", 512, 16)
	for _, metric := range []Metric{Cosine, L2, InnerProduct} {
		if res := KMeans(keys, 16, 6, Config{Metric: metric, Seed: 1, MaxIters: 3}); res.Iters != 3 {
			t.Fatalf("%v: converged in %d iterations; the test needs 3", metric, res.Iters)
		}
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(20, func() { KMeans(keys, 16, 6, Config{Metric: metric, Seed: 1, MaxIters: iters}) })
		}
		if one, three := allocs(1), allocs(3); three != one {
			t.Fatalf("%v: %v allocations at 3 iterations, %v at 1", metric, three, one)
		}
	}
}

// benchmarkKMeans times one cosine clustering of n keys at head dim 16 into
// c clusters on the given implementation.
func benchmarkKMeans(b *testing.B, n, c int, fn func([]float32, int, int, Config) *Result) {
	keys := oracleKeys("random", n, 16)
	cfg := Config{Seed: 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(keys, 16, c, cfg)
	}
}

// BenchmarkKMeans512x6 is about the clustering of one sessions_churn_fleet
// prompt (480 keys into 6 clusters).
func BenchmarkKMeans512x6(b *testing.B)       { benchmarkKMeans(b, 512, 6, KMeans) }
func BenchmarkKMeans512x6Oracle(b *testing.B) { benchmarkKMeans(b, 512, 6, kmeansOracle) }

// BenchmarkKMeans4096x51 is a 4k-token prefill's: 4096 keys into 51
// clusters.
func BenchmarkKMeans4096x51(b *testing.B)       { benchmarkKMeans(b, 4096, 51, KMeans) }
func BenchmarkKMeans4096x51Oracle(b *testing.B) { benchmarkKMeans(b, 4096, 51, kmeansOracle) }
