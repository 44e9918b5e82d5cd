package cluster

import (
	"slices"
	"testing"
	"testing/quick"

	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// randKeys builds n keys of dimension d with g well-separated groups.
func randKeys(seed uint64, n, d, g int) ([]float32, []int) {
	r := rng.New(seed)
	dirs := make([][]float32, g)
	for i := range dirs {
		dirs[i] = make([]float32, d)
		for j := range dirs[i] {
			dirs[i][j] = r.NormFloat32()
		}
		tensor.Normalize(dirs[i])
	}
	keys := make([]float32, n*d)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		grp := i % g
		truth[i] = grp
		row := keys[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			row[j] = 4*dirs[grp][j] + 0.2*r.NormFloat32()
		}
	}
	return keys, truth
}

func checkInvariants(t *testing.T, res *Result, n int) {
	t.Helper()
	c := res.NumClusters()
	if len(res.Labels) != n {
		t.Fatalf("labels length %d, want %d", len(res.Labels), n)
	}
	total := 0
	for j, sz := range res.Sizes {
		if sz <= 0 {
			t.Fatalf("cluster %d empty (size %d)", j, sz)
		}
		total += sz
	}
	if total != n {
		t.Fatalf("sizes sum %d, want %d", total, n)
	}
	if len(res.PrefixSum) != c+1 || res.PrefixSum[0] != 0 || res.PrefixSum[c] != n {
		t.Fatalf("prefix sum malformed: %v", res.PrefixSum)
	}
	for j := 0; j < c; j++ {
		if res.PrefixSum[j+1]-res.PrefixSum[j] != res.Sizes[j] {
			t.Fatalf("prefix sum inconsistent with sizes at %d", j)
		}
	}
	// SortedIndices is a permutation partitioned by label, index-sorted
	// within each cluster.
	seen := make([]bool, n)
	for j := 0; j < c; j++ {
		members := res.Members(j)
		if len(members) != res.Sizes[j] {
			t.Fatalf("Members(%d) length mismatch", j)
		}
		for i, m := range members {
			if m < 0 || m >= n || seen[m] {
				t.Fatalf("member %d invalid or duplicated", m)
			}
			seen[m] = true
			if res.Labels[m] != j {
				t.Fatalf("member %d has label %d, want %d", m, res.Labels[m], j)
			}
			if i > 0 && members[i-1] >= m {
				t.Fatalf("members of cluster %d not index-sorted", j)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("key %d missing from metadata", i)
		}
	}
}

func TestKMeansInvariantsAllMetrics(t *testing.T) {
	for _, m := range []Metric{Cosine, L2, InnerProduct} {
		t.Run(m.String(), func(t *testing.T) {
			keys, _ := randKeys(uint64(m)+1, 200, 8, 5)
			res := KMeans(keys, 8, 10, Config{Metric: m, Seed: 1})
			checkInvariants(t, res, 200)
		})
	}
}

func TestKMeansRecoversSeparatedGroups(t *testing.T) {
	// Over-segment (12 clusters for 6 groups): k-means with exact c=g often
	// hits merge/split local optima, but over-segmented clusters should be
	// nearly pure.
	keys, truth := randKeys(7, 300, 16, 6)
	res := KMeans(keys, 16, 12, Config{Metric: Cosine, Seed: 3})
	// Majority-label purity should be near 1 on well-separated groups.
	agree := 0
	for j := 0; j < res.NumClusters(); j++ {
		counts := map[int]int{}
		for _, m := range res.Members(j) {
			counts[truth[m]]++
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		agree += best
	}
	if purity := float64(agree) / 300; purity < 0.95 {
		t.Fatalf("purity = %v on well-separated groups", purity)
	}
}

func TestKMeansCentroidIsMeanOfMembers(t *testing.T) {
	keys, _ := randKeys(9, 120, 4, 3)
	res := KMeans(keys, 4, 5, Config{Metric: Cosine, Seed: 2})
	for j := 0; j < res.NumClusters(); j++ {
		mean := make([]float32, 4)
		for _, m := range res.Members(j) {
			tensor.Axpy(1, keys[m*4:(m+1)*4], mean)
		}
		tensor.Scale(1/float32(res.Sizes[j]), mean)
		for d := 0; d < 4; d++ {
			diff := mean[d] - res.Centroids.At(j, d)
			if diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("centroid %d chan %d = %v, want mean %v", j, d, res.Centroids.At(j, d), mean[d])
			}
		}
	}
}

func TestKMeansMoreClustersThanKeys(t *testing.T) {
	keys, _ := randKeys(11, 5, 4, 2)
	res := KMeans(keys, 4, 50, Config{Seed: 1})
	if res.NumClusters() > 5 {
		t.Fatalf("got %d clusters for 5 keys", res.NumClusters())
	}
	checkInvariants(t, res, 5)
}

func TestKMeansSingleKey(t *testing.T) {
	res := KMeans([]float32{1, 2}, 2, 3, Config{Seed: 1})
	if res.NumClusters() != 1 || res.Sizes[0] != 1 {
		t.Fatalf("single key: %d clusters", res.NumClusters())
	}
}

func TestKMeansIdenticalKeys(t *testing.T) {
	keys := make([]float32, 20*4)
	for i := 0; i < 20; i++ {
		copy(keys[i*4:], []float32{1, 2, 3, 4})
	}
	res := KMeans(keys, 4, 4, Config{Seed: 5})
	checkInvariants(t, res, 20)
}

func TestKMeansDeterminism(t *testing.T) {
	keys, _ := randKeys(13, 100, 8, 4)
	a := KMeans(keys, 8, 8, Config{Seed: 9})
	b := KMeans(keys, 8, 8, Config{Seed: 9})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("KMeans not deterministic")
		}
	}
}

func TestKMeansIterCap(t *testing.T) {
	keys, _ := randKeys(15, 200, 8, 4)
	res := KMeans(keys, 8, 10, Config{MaxIters: 2, Seed: 1})
	if res.Iters > 2 {
		t.Fatalf("iters = %d, cap 2", res.Iters)
	}
	if res.AssignOps != int64(res.Iters)*200*10*8 {
		t.Fatalf("AssignOps = %d", res.AssignOps)
	}
}

func TestKMeansPanics(t *testing.T) {
	cases := []func(){
		func() { KMeans([]float32{1, 2, 3}, 2, 1, Config{}) }, // not multiple of d
		func() { KMeans(nil, 2, 1, Config{}) },                // zero keys
		func() { KMeans([]float32{1, 2}, 2, 0, Config{}) },    // c < 1
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestKMeansInvariantsProperty(t *testing.T) {
	check := func(seed uint64, nn, cc, dd uint8) bool {
		n := int(nn)%120 + 1
		c := int(cc)%20 + 1
		d := int(dd)%12 + 2
		r := rng.New(seed)
		keys := make([]float32, n*d)
		for i := range keys {
			keys[i] = r.NormFloat32()
		}
		res := KMeans(keys, d, c, Config{Seed: seed})
		// Inline invariant checks (bool form for quick).
		total := 0
		for _, sz := range res.Sizes {
			if sz <= 0 {
				return false
			}
			total += sz
		}
		if total != n {
			return false
		}
		seen := make([]bool, n)
		for j := 0; j < res.NumClusters(); j++ {
			for _, m := range res.Members(j) {
				if m < 0 || m >= n || seen[m] || res.Labels[m] != j {
					return false
				}
				seen[m] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBookAddBatchOffsets(t *testing.T) {
	b := NewBook(4, 16)
	keys, _ := randKeys(1, 80, 4, 4)
	res := KMeans(keys, 4, 4, Config{Seed: 1})
	b.AddBatch(res)
	if b.ClusteredUpTo() != 96 || b.TotalTokens() != 80 {
		t.Fatalf("ClusteredUpTo=%d TotalTokens=%d", b.ClusteredUpTo(), b.TotalTokens())
	}
	// Every member position must be offset by start=16.
	count := 0
	for j := 0; j < b.NumClusters(); j++ {
		for _, p := range b.Members(j) {
			if p < 16 || p >= 96 {
				t.Fatalf("member %d outside [16,96)", p)
			}
			count++
		}
	}
	if count != 80 {
		t.Fatalf("total members %d", count)
	}

	// Second (decode) batch appends after the first.
	keys2, _ := randKeys(2, 20, 4, 2)
	res2 := KMeans(keys2, 4, 2, Config{Seed: 2})
	b.AddBatch(res2)
	if b.ClusteredUpTo() != 116 || b.NumClusters() != 6 {
		t.Fatalf("after second batch: upTo=%d clusters=%d", b.ClusteredUpTo(), b.NumClusters())
	}
	for j := 4; j < 6; j++ {
		for _, p := range b.Members(j) {
			if p < 96 || p >= 116 {
				t.Fatalf("decode-batch member %d outside [96,116)", p)
			}
		}
	}
}

func TestBookScoreClusters(t *testing.T) {
	b := NewBook(2, 0)
	res := KMeans([]float32{1, 0, 1, 0, 0, 1, 0, 1}, 2, 2, Config{Seed: 1})
	b.AddBatch(res)
	scores := make([]float32, b.NumClusters())
	ops := b.ScoreClusters(scores, []float32{1, 0})
	if ops != int64(b.NumClusters())*2 {
		t.Fatalf("ops = %d", ops)
	}
	for j := 0; j < b.NumClusters(); j++ {
		want := tensor.Dot([]float32{1, 0}, b.Centroid(j))
		if scores[j] != want {
			t.Fatalf("score %d = %v, want %v", j, scores[j], want)
		}
	}
}

func TestBookSelectTopClustersBudgetAndTrim(t *testing.T) {
	// Three clusters of sizes 3, 2, 1; budget 4 must take the best cluster
	// whole and trim the next.
	b := NewBook(1, 0)
	res := &Result{
		Centroids:     tensor.WrapMat(3, 1, []float32{3, 2, 1}),
		Labels:        []int{0, 0, 0, 1, 1, 2},
		Sizes:         []int{3, 2, 1},
		Iters:         1,
		SortedIndices: []int{0, 1, 2, 3, 4, 5},
		PrefixSum:     []int{0, 3, 5, 6},
	}
	b.AddBatch(res)
	scores := []float32{10, 5, 1}
	clusters, positions := selectPositions(b, scores, 4)
	if len(clusters) != 2 || clusters[0] != 0 || clusters[1] != 1 {
		t.Fatalf("clusters = %v", clusters)
	}
	if len(positions) != 4 {
		t.Fatalf("positions = %v, want exactly budget 4", positions)
	}
	// Cluster 0 fully (0,1,2) + first member of cluster 1 (3).
	want := []int{0, 1, 2, 3}
	for i := range want {
		if positions[i] != want[i] {
			t.Fatalf("positions = %v", positions)
		}
	}
}

func TestBookSelectTopClustersSmallBudget(t *testing.T) {
	b := NewBook(1, 0)
	keys, _ := randKeys(3, 50, 1, 2)
	b.AddBatch(KMeans(keys, 1, 5, Config{Seed: 1}))
	scores := make([]float32, b.NumClusters())
	b.ScoreClusters(scores, []float32{1})
	_, positions := selectPositions(b, scores, 7)
	if len(positions) != 7 {
		t.Fatalf("got %d positions, want 7", len(positions))
	}
	if c, p := selectPositions(b, scores, 0); c != nil || p != nil {
		t.Fatal("zero budget must select nothing")
	}
}

func TestBookSelectBudgetBeyondTokens(t *testing.T) {
	b := NewBook(1, 0)
	keys, _ := randKeys(4, 10, 1, 2)
	b.AddBatch(KMeans(keys, 1, 2, Config{Seed: 1}))
	scores := make([]float32, b.NumClusters())
	b.ScoreClusters(scores, []float32{1})
	_, positions := selectPositions(b, scores, 100)
	if len(positions) != 10 {
		t.Fatalf("budget beyond tokens: got %d, want all 10", len(positions))
	}
}

func TestMetricString(t *testing.T) {
	if Cosine.String() != "cosine" || L2.String() != "l2" || InnerProduct.String() != "inner-product" {
		t.Fatal("Metric.String wrong")
	}
	if Metric(99).String() != "Metric(99)" {
		t.Fatal("unknown metric string")
	}
}

// TestBookAddPackedMatchesAddBatch: appending Pack() of a result leaves the
// book AddBatch leaves, and both hold what the Result says — over several
// batches per book, with c ≥ n (every key its own cluster) included.
func TestBookAddPackedMatchesAddBatch(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 60; trial++ {
		d := 1 + r.Intn(6)
		start := r.Intn(20)
		plain, packed := NewBook(d, start), NewBook(d, start)
		offset, clusters := start, 0
		for batch := 0; batch < 1+r.Intn(3); batch++ {
			n := 1 + r.Intn(60)
			c := 1 + r.Intn(n+3) // up to n+3: c ≥ n gives single-member clusters
			keys, _ := randKeys(r.Uint64(), n, d, 3)
			res := KMeans(keys, d, c, Config{Seed: r.Uint64(), Metric: Metric(r.Intn(3))})
			p := res.Pack()
			if want := 4 * int64(res.NumClusters()*d+res.NumClusters()+1+n); p.Bytes() != want {
				t.Fatalf("trial %d: packed %d bytes, want %d", trial, p.Bytes(), want)
			}
			plain.AddBatch(res)
			packed.AddPacked(p)
			for j := 0; j < res.NumClusters(); j++ {
				g := clusters + j
				if !slices.Equal(packed.Centroid(g), res.Centroids.Row(j)) || packed.Size(g) != res.Sizes[j] {
					t.Fatalf("trial %d cluster %d: centroid or size differs from the result", trial, g)
				}
				want := slices.Clone(res.Members(j))
				for i := range want {
					want[i] += offset
				}
				if !slices.Equal(packed.Members(g), want) || !slices.Equal(plain.Members(g), want) {
					t.Fatalf("trial %d cluster %d: members %v / %v, want %v", trial, g, packed.Members(g), plain.Members(g), want)
				}
			}
			offset += n
			clusters += res.NumClusters()
		}
		if packed.ClusteredUpTo() != offset || plain.ClusteredUpTo() != offset ||
			packed.NumClusters() != clusters || plain.NumClusters() != clusters {
			t.Fatalf("trial %d: packed %d clusters up to %d, plain %d up to %d, want %d up to %d", trial,
				packed.NumClusters(), packed.ClusteredUpTo(), plain.NumClusters(), plain.ClusteredUpTo(), clusters, offset)
		}
		if !slices.Equal(packed.Centroids(), plain.Centroids()) {
			t.Fatalf("trial %d: centroid storage differs", trial)
		}
	}
}
