package cluster

import (
	"slices"

	"clusterkv/internal/parallel"
	"clusterkv/internal/tensor"
)

// Book is the incremental cluster registry of one (layer, head): the prefill
// clustering plus every decode-time batch (paper §III-B: every m decoding
// steps the m new keys are clustered into C+ new clusters, appended to the
// existing ones). Cluster ids are global and stable; token positions stored
// in the Book are absolute sequence positions.
//
// The Book also implements the selection-time indexing of paper §IV-C /
// Fig. 8: pick the top clusters by attention weight under the token budget,
// trimming the last one, and expose each cluster's members through sizes +
// prefix sums so callers read them in place.
type Book struct {
	d int
	// centroids packed row-major, one row per global cluster.
	centroids []float32
	// sizes[j] is the member count of global cluster j.
	sizes []int
	// members is the concatenation of per-cluster member position lists:
	// cluster j owns members[prefix[j]:prefix[j+1]] — the Book-level
	// equivalent of Fig. 8's sorted indices + prefix sums.
	members []int
	prefix  []int
	// clusteredUpTo is the absolute position one past the last clustered
	// token (sink tokens are excluded and live below Start).
	clusteredUpTo int
	start         int
}

// NewBook returns an empty Book for key vectors of dimension d, whose first
// clustered token will be at absolute position start (tokens below start are
// attention sinks, handled outside the Book — paper §III-B).
func NewBook(d, start int) *Book {
	return &Book{d: d, start: start, clusteredUpTo: start, prefix: []int{0}}
}

// Dim returns the key dimension.
func (b *Book) Dim() int { return b.d }

// Start returns the absolute position of the first clusterable token.
func (b *Book) Start() int { return b.start }

// ClusteredUpTo returns one past the last clustered absolute position.
func (b *Book) ClusteredUpTo() int { return b.clusteredUpTo }

// NumClusters returns the number of global clusters.
func (b *Book) NumClusters() int { return len(b.sizes) }

// Centroid returns the centroid of global cluster j (aliases storage).
func (b *Book) Centroid(j int) []float32 {
	return b.centroids[j*b.d : (j+1)*b.d]
}

// Centroids returns the packed centroid storage (NumClusters()×d row-major).
func (b *Book) Centroids() []float32 { return b.centroids }

// Size returns the member count of global cluster j.
func (b *Book) Size(j int) int { return b.sizes[j] }

// Members returns the absolute token positions of global cluster j,
// aliasing internal storage.
func (b *Book) Members(j int) []int {
	return b.members[b.prefix[j]:b.prefix[j+1]]
}

// TotalTokens returns the number of clustered tokens.
func (b *Book) TotalTokens() int { return b.clusteredUpTo - b.start }

// AddBatch appends a clustering result covering the keys at absolute
// positions [b.ClusteredUpTo(), b.ClusteredUpTo()+len(res.SortedIndices)).
// The result's local indices are offset to absolute positions.
func (b *Book) AddBatch(res *Result) {
	appendClusters(b, res.Centroids.Data[:res.NumClusters()*b.d], res.PrefixSum, res.SortedIndices)
}

// Packed is a clustering result reduced to what a Book appends from it, in
// 32-bit words: the form that is published on KV pages (about 4 bytes per
// clustered key plus the centroids; a Result's labels, sizes and 64-bit
// indices are about 16).
type Packed struct {
	// Centroids is the c×d centroid matrix, row-major.
	Centroids []float32
	// Prefix and Members are Result.PrefixSum and Result.SortedIndices:
	// cluster j owns Members[Prefix[j]:Prefix[j+1]], indices local to the
	// clustered slice.
	Prefix, Members []int32
}

// Pack returns r in packed form. Centroids aliases r's; the rest is copied.
func (r *Result) Pack() *Packed {
	c := r.NumClusters()
	p := &Packed{
		Centroids: r.Centroids.Data[:c*r.Centroids.Cols],
		Prefix:    make([]int32, c+1),
		Members:   make([]int32, len(r.SortedIndices)),
	}
	for j, v := range r.PrefixSum[:c+1] {
		p.Prefix[j] = int32(v)
	}
	for i, v := range r.SortedIndices {
		p.Members[i] = int32(v)
	}
	return p
}

// Bytes returns the size of p's arrays.
func (p *Packed) Bytes() int64 {
	return 4 * int64(len(p.Centroids)+len(p.Prefix)+len(p.Members))
}

// AddPacked is AddBatch for a packed result; p is only read.
func (b *Book) AddPacked(p *Packed) {
	appendClusters(b, p.Centroids, p.Prefix, p.Members)
}

// appendClusters appends len(prefix)-1 clusters whose members — indices local
// to the keys at [b.clusteredUpTo, b.clusteredUpTo+len(members)) — are
// members[prefix[j]:prefix[j+1]].
func appendClusters[T int | int32](b *Book, centroids []float32, prefix, members []T) {
	b.centroids = append(b.centroids, centroids...)
	base := len(b.members)
	for j := 1; j < len(prefix); j++ {
		b.sizes = append(b.sizes, int(prefix[j]-prefix[j-1]))
		b.prefix = append(b.prefix, base+int(prefix[j]))
	}
	b.members = slices.Grow(b.members, len(members))
	for _, local := range members {
		b.members = append(b.members, b.clusteredUpTo+int(local))
	}
	b.clusteredUpTo += len(members)
}

// ScoreClusters writes q·µ_j into dst for every global cluster j (inner
// product scoring, §III-C: "the distance between query vector and centroids
// is measured with inner product, as it better aligns with attention weight
// computation"). dst must have length NumClusters(). Returns the number of
// score-dimension ops performed (C·d).
//
// Scoring is cluster-parallel on the shared intra-op pool: every dst[j] is
// an independent dot product, so results are bit-identical at any width.
func (b *Book) ScoreClusters(dst, q []float32) int64 {
	c := b.NumClusters()
	// Closure-free serial fast path: a decode step scores a few dozen
	// centroids per head, which never fans out, and a closure passed to For
	// is forced onto the heap (DESIGN.md §12).
	if p := parallel.Default(); p.RunsInline(c, parallel.Grain(b.d)) {
		b.scoreRange(dst, q, 0, c)
	} else {
		p.For(c, parallel.Grain(b.d), func(lo, hi int) { b.scoreRange(dst, q, lo, hi) })
	}
	return int64(c) * int64(b.d)
}

func (b *Book) scoreRange(dst, q []float32, lo, hi int) {
	// Each dst[j] is tensor.Dot(q, Centroid(j)) to the bit.
	tensor.DotRows(dst[lo:hi], q, b.centroids[lo*b.d:hi*b.d], b.d, 1)
}

// TopScratch is the reusable working memory of SelectTopClusters; the zero
// value is ready to use. One scratch serves one caller at a time.
type TopScratch struct {
	heap []int
}

// SelectTopClusters implements the cluster pick of the §IV-C selection &
// indexing procedure: non-empty clusters are taken in descending score order
// (ties: lower id first) until their cumulative size reaches tokenBudget;
// the last selected cluster is trimmed so the total equals the budget
// exactly (when enough clustered tokens exist).
//
// It returns the chosen cluster ids in score order and lastTake, how many
// members of the last one fit: every other chosen cluster is taken whole,
// the last contributes Members(id)[:lastTake]. Positions are not gathered —
// callers walk PickMembers of the chosen clusters themselves. The pick is partial:
// a max-heap over the C cluster ids is built in O(C) and popped once per
// chosen cluster, O(C + k log C) instead of a full sort. clusters aliases sc
// and is valid until sc's next use.
func (b *Book) SelectTopClusters(sc *TopScratch, scores []float32, tokenBudget int) (clusters []int, lastTake int) {
	if tokenBudget <= 0 {
		return nil, 0
	}
	h := sc.heap[:0]
	for j, sz := range b.sizes {
		if sz > 0 {
			h = append(h, j)
		}
	}
	sc.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, scores, i, len(h))
	}
	// Heapsort's layout: each pop parks the root behind the shrinking heap,
	// so the k picks end up in h[n:] in reverse pick order.
	n, total := len(h), 0
	for n > 0 && total < tokenBudget {
		n--
		h[0], h[n] = h[n], h[0]
		siftDown(h, scores, 0, n)
		lastTake = min(b.sizes[h[n]], tokenBudget-total)
		total += lastTake
	}
	clusters = h[n:]
	slices.Reverse(clusters)
	return clusters, lastTake
}

// PickMembers returns the positions the i-th cluster of a SelectTopClusters
// pick contributes: all of its members, or the first lastTake for the last.
func (b *Book) PickMembers(clusters []int, lastTake, i int) []int {
	m := b.Members(clusters[i])
	if i == len(clusters)-1 {
		m = m[:lastTake]
	}
	return m
}

// pickedBefore is SelectTopClusters' order: score descending, ties by
// ascending cluster id.
func pickedBefore(scores []float32, x, y int) bool {
	return scores[x] > scores[y] || (scores[x] == scores[y] && x < y)
}

// siftDown restores the heap property of h[:n] (root = first pick) below i.
func siftDown(h []int, scores []float32, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && pickedBefore(scores, h[r], h[l]) {
			l = r
		}
		if !pickedBefore(scores, h[l], h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}
