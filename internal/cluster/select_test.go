package cluster

import (
	"slices"
	"testing"

	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// selectPositions runs SelectTopClusters and gathers the member positions it
// stands for: every chosen cluster whole, the last one cut to lastTake.
func selectPositions(b *Book, scores []float32, budget int) (clusters, positions []int) {
	var sc TopScratch
	clusters, lastTake := b.SelectTopClusters(&sc, scores, budget)
	for i := range clusters {
		positions = append(positions, b.PickMembers(clusters, lastTake, i)...)
	}
	return clusters, positions
}

// oracleSelectTopClusters is the sort-and-gather procedure SelectTopClusters
// replaced: a full stable argsort of the scores, then clusters taken in that
// order with the last one trimmed to the budget.
func oracleSelectTopClusters(b *Book, scores []float32, tokenBudget int) (clusters, positions []int) {
	if tokenBudget <= 0 {
		return nil, nil
	}
	total := 0
	for _, j := range tensor.ArgsortDesc(scores) {
		sz := b.Size(j)
		if sz == 0 {
			continue
		}
		clusters = append(clusters, j)
		take := min(sz, tokenBudget-total)
		positions = append(positions, b.Members(j)[:take]...)
		total += take
		if total >= tokenBudget {
			break
		}
	}
	return clusters, positions
}

// syntheticBook builds a book of the given cluster sizes (zeros allowed) over
// consecutive positions dealt round-robin, so member lists interleave.
func syntheticBook(sizes []int) *Book {
	n := 0
	for _, sz := range sizes {
		n += sz
	}
	res := &Result{
		Centroids: tensor.NewMat(len(sizes), 1),
		Labels:    make([]int, n),
		Sizes:     sizes,
		PrefixSum: make([]int, len(sizes)+1),
	}
	left := slices.Clone(sizes)
	for p, j := 0, 0; p < n; j = (j + 1) % len(sizes) {
		if left[j] > 0 {
			res.Labels[p] = j
			left[j]--
			p++
		}
	}
	for j, sz := range sizes {
		res.PrefixSum[j+1] = res.PrefixSum[j] + sz
		for p, l := range res.Labels {
			if l == j {
				res.SortedIndices = append(res.SortedIndices, p)
			}
		}
	}
	b := NewBook(1, 16)
	b.AddBatch(res)
	return b
}

// TestSelectTopClustersMatchesSortOracle locks the partial heap pick to the
// full-sort procedure it replaced: same clusters in the same order and the
// same gathered positions, under tied scores, empty clusters, every budget
// regime and cluster counts up to the 32k-context shape and beyond.
func TestSelectTopClustersMatchesSortOracle(t *testing.T) {
	r := rng.New(11)
	for _, c := range []int{1, 2, 7, 55, 410, 2000} {
		for trial := 0; trial < 6; trial++ {
			sizes := make([]int, c)
			total := 0
			for j := range sizes {
				if r.Intn(5) > 0 { // a fifth of the clusters are empty
					sizes[j] = 1 + r.Intn(12)
				}
				total += sizes[j]
			}
			b := syntheticBook(sizes)
			scores := make([]float32, c)
			for j := range scores {
				// Few distinct values: ties everywhere, broken by id.
				scores[j] = float32(r.Intn(1 + c/3))
			}
			budgets := []int{-3, 0, 1, total - 1, total, total + 9, 1 + r.Intn(total+1)}
			// A budget that trims the last picked cluster to one member.
			if cl, _ := oracleSelectTopClusters(b, scores, total); len(cl) > 1 {
				sum := 0
				for _, j := range cl[:len(cl)/2] {
					sum += b.Size(j)
				}
				budgets = append(budgets, sum+1)
			}
			var sc TopScratch // reused across budgets, as a selector does
			for _, budget := range budgets {
				wantC, wantP := oracleSelectTopClusters(b, scores, budget)
				gotC, lastTake := b.SelectTopClusters(&sc, scores, budget)
				if !slices.Equal(gotC, wantC) {
					t.Fatalf("C=%d budget=%d: clusters %v, want %v", c, budget, gotC, wantC)
				}
				var gotP []int
				for i := range gotC {
					gotP = append(gotP, b.PickMembers(gotC, lastTake, i)...)
				}
				if !slices.Equal(gotP, wantP) {
					t.Fatalf("C=%d budget=%d: positions differ (lastTake %d): %v, want %v", c, budget, lastTake, gotP, wantP)
				}
			}
		}
	}
}

// TestSelectTopClustersWarmAllocsZero: with a warm scratch the pick allocates
// nothing, at a cluster count (4096) far past any context this repo decodes.
func TestSelectTopClustersWarmAllocsZero(t *testing.T) {
	const c = 4096
	sizes := make([]int, c)
	for j := range sizes {
		sizes[j] = 1
	}
	b := syntheticBook(sizes)
	scores := make([]float32, c)
	for j := range scores {
		scores[j] = float32((j * 2654435761) % 1000003)
	}
	var sc TopScratch
	got, _ := b.SelectTopClusters(&sc, scores, 8)
	want, _ := oracleSelectTopClusters(b, scores, 8)
	if !slices.Equal(got, want) {
		t.Fatalf("clusters %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { b.SelectTopClusters(&sc, scores, 8) }); allocs != 0 {
		t.Fatalf("warm SelectTopClusters allocates %.1f objects/call, want 0", allocs)
	}
}
