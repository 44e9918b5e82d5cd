package serve

import "slices"

// The engine's prefix cache: a radix tree over page-aligned token runs.
// Entries anchor at the node covering their page-aligned prefix and keep their
// sub-page tail inline, so nested prefixes (multi-turn chat, agentic re-entry,
// templated RAG) share structure: a lookup that misses exactly still finds the
// deepest cached ancestor and reuses its pages up to the longest page-aligned
// common prefix via a zero-copy truncated fork (model.Snapshot.Prefix).
//
// Tree nodes themselves own no pages — entries do, through their snapshots;
// interior nodes are pure structure and are pruned when the last entry below
// them leaves. Eviction is entry-granular LRU with a deterministic
// (lastUsed, seq) order, where seq is the admission sequence number, so two
// entries idle since the same round always evict oldest-admitted first.
//
// Exactly one goroutine (the scheduler loop) touches the cache; no locking
// anywhere here.

// cacheLookup is the cache's answer for one declared prefix.
type cacheLookup struct {
	// exact is the ready entry whose tokens equal the probed prefix, nil
	// otherwise. When set, reuse == len(prefix).
	exact *prefixEntry
	// best is the ready entry offering the deepest reuse when there is no
	// exact match: a cached ancestor whose first `reuse` tokens match the
	// probed prefix (reuse is page-aligned unless the whole entry is a prefix
	// of the probe). nil when nothing overlaps.
	best  *prefixEntry
	reuse int
	// wait reports that a still-building entry would serve this prefix
	// strictly better than any ready one; the scheduler holds the request a
	// round rather than duplicating prefill work already in flight.
	wait bool
}

// radixNode is one tree node. Its edge is the token run from its parent's
// depth to its own; every edge is a whole number of pages (the root has none),
// and sibling edges always differ somewhere inside their first page, so at
// most one child can match any probe.
type radixNode struct {
	parent *radixNode
	edge   []int
	depth  int // tokens from the root; always a multiple of pageTokens
	// children indexes child runs by the content hash of their edge's first
	// page; hash collisions share a slot and are token-verified.
	children map[uint64][]*radixNode
	// entries anchored here: cached prefixes whose page-aligned length equals
	// depth. Their sub-page tails (len < pageTokens, possibly empty) are what
	// distinguish them.
	entries []*prefixEntry
}

type radixCache struct {
	// byAdmit lists every live entry in admission order, giving seq-ordered
	// iteration and the (lastUsed, seq) eviction scan.
	byAdmit    []*prefixEntry
	pageTokens int
	root       *radixNode
}

func newRadixCache(pageTokens int) *radixCache {
	return &radixCache{
		pageTokens: pageTokens,
		root:       &radixNode{children: map[uint64][]*radixNode{}},
	}
}

// match finds node's unique child whose edge begins with the probe's next
// page and reports how many whole pages of that edge match. The caller
// guarantees len(probe) - node.depth >= pageTokens.
func (c *radixCache) match(node *radixNode, probe []int) (*radixNode, int) {
	P := c.pageTokens
	run := probe[node.depth:]
	for _, child := range node.children[prefixKey(run[:P])] {
		if !sameTokens(child.edge[:P], run[:P]) {
			continue
		}
		limit := len(run) / P * P
		if len(child.edge) < limit {
			limit = len(child.edge)
		}
		k := 1
		for ; k*P < limit; k++ {
			if !sameTokens(child.edge[k*P:(k+1)*P], run[k*P:(k+1)*P]) {
				break
			}
		}
		return child, k
	}
	return nil, 0
}

func (c *radixCache) link(parent, child *radixNode) {
	child.parent = parent
	h := prefixKey(child.edge[:c.pageTokens])
	parent.children[h] = append(parent.children[h], child)
}

func (c *radixCache) unlink(parent, child *radixNode) {
	h := prefixKey(child.edge[:c.pageTokens])
	b := parent.children[h]
	for i, x := range b {
		if x == child {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(parent.children, h)
	} else {
		parent.children[h] = b
	}
}

// split breaks child's edge at `at` tokens (a page multiple strictly inside
// the edge), interposing a new structural node, and returns it.
func (c *radixCache) split(child *radixNode, at int) *radixNode {
	parent := child.parent
	mid := &radixNode{
		edge:     child.edge[:at],
		depth:    parent.depth + at,
		children: map[uint64][]*radixNode{},
	}
	c.unlink(parent, child)
	c.link(parent, mid)
	child.edge = child.edge[at:]
	c.link(mid, child)
	return mid
}

// entries appends every live entry to dst in admission (seq) order.
func (c *radixCache) entries(dst []*prefixEntry) []*prefixEntry {
	return append(dst, c.byAdmit...)
}

// evictVictim returns the LRU idle published entry — minimal (lastUsed, seq),
// refs == 0, ready — or nil when none is evictable.
func (c *radixCache) evictVictim() *prefixEntry {
	var v *prefixEntry
	for _, p := range c.byAdmit {
		if p.refs > 0 || !p.ready {
			continue
		}
		if v == nil || p.lastUsed < v.lastUsed ||
			(p.lastUsed == v.lastUsed && p.seq < v.seq) {
			v = p
		}
	}
	return v
}

func (c *radixCache) insert(e *prefixEntry) {
	c.byAdmit = append(c.byAdmit, e)
	P := c.pageTokens
	aligned := len(e.tokens) / P * P
	node := c.root
	for node.depth < aligned {
		child, k := c.match(node, e.tokens[:aligned])
		if child == nil {
			leaf := &radixNode{
				edge:     e.tokens[node.depth:aligned],
				depth:    aligned,
				children: map[uint64][]*radixNode{},
			}
			c.link(node, leaf)
			node = leaf
			break
		}
		if k*P < len(child.edge) {
			// Divergence (or exhaustion of e's aligned span) inside the edge.
			child = c.split(child, k*P)
		}
		node = child
	}
	e.node = node
	node.entries = append(node.entries, e)
}

func (c *radixCache) remove(e *prefixEntry) {
	c.byAdmit = slices.DeleteFunc(c.byAdmit, func(x *prefixEntry) bool { return x == e })
	n := e.node
	e.node = nil
	for i, x := range n.entries {
		if x == e {
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			break
		}
	}
	// Prune empty leaves upward, and merge a now-entryless pass-through node
	// with its only child so edges stay maximal (the invariant match relies
	// on: siblings diverge within their first page).
	for n != nil && n != c.root && len(n.entries) == 0 {
		parent := n.parent
		switch c.childCount(n) {
		case 0:
			c.unlink(parent, n)
			n = parent
			if len(n.entries) > 0 {
				return
			}
		case 1:
			only := c.onlyChild(n)
			c.unlink(n, only)
			c.unlink(parent, n)
			merged := make([]int, 0, len(n.edge)+len(only.edge))
			merged = append(append(merged, n.edge...), only.edge...)
			only.edge = merged
			c.link(parent, only)
			return
		default:
			return
		}
	}
}

func (c *radixCache) childCount(n *radixNode) int {
	total := 0
	for _, b := range n.children {
		total += len(b)
	}
	return total
}

func (c *radixCache) onlyChild(n *radixNode) *radixNode {
	for _, b := range n.children {
		if len(b) > 0 {
			return b[0]
		}
	}
	return nil
}

// walkEntries visits every entry in n's subtree. Visit order depends on map
// iteration and must only feed order-independent reductions (min/any).
func (c *radixCache) walkEntries(n *radixNode, fn func(*prefixEntry)) {
	for _, e := range n.entries {
		fn(e)
	}
	for _, b := range n.children {
		for _, child := range b {
			c.walkEntries(child, fn)
		}
	}
}

// lookup walks the probe's full pages down the tree, then ranks every form of
// reuse the structure proves:
//
//   - an entry token-equal to the probe (exact hit, reuse = len(prefix));
//   - an entry at the deepest matched node whose whole token run — unaligned
//     tail included — is a prefix of the probe (reuse = the entry's length);
//   - any entry in the subtree guaranteeing the deepest page-aligned match
//     (reuse = that aligned depth: every entry below it shares exactly those
//     pages with the probe).
//
// Ready entries compete on (reuse desc, seq asc), deterministically. If a
// still-building entry would beat every ready candidate, lookup reports wait
// instead: the request holds a round rather than duplicating the build.
func (c *radixCache) lookup(prefix []int) cacheLookup {
	P := c.pageTokens
	node := c.root
	var partial *radixNode
	dmax := 0
	for {
		if len(prefix)-node.depth < P {
			break
		}
		child, k := c.match(node, prefix)
		if child == nil {
			break
		}
		if k*P == len(child.edge) {
			node = child
			continue
		}
		if k > 0 {
			partial = child
			dmax = node.depth + k*P
		}
		break
	}
	if partial == nil {
		dmax = node.depth
	}

	var lk cacheLookup
	buildReuse := 0 // deepest reuse a still-building entry would offer
	consider := func(e *prefixEntry, reuse int) {
		if reuse <= 0 {
			return
		}
		if !e.ready {
			if reuse > buildReuse {
				buildReuse = reuse
			}
			return
		}
		if reuse > lk.reuse || (reuse == lk.reuse && (lk.best == nil || e.seq < lk.best.seq)) {
			lk.best, lk.reuse = e, reuse
		}
	}
	// Entries anchored at the deepest fully matched node: exact and
	// whole-entry (tail-inclusive, unaligned) reuse. A token-equal entry wins
	// outright — ready means hit, building means wait — and admit guarantees
	// at most one such entry exists.
	for _, e := range node.entries {
		if len(e.tokens) > len(prefix) || !sameTokens(e.tokens, prefix[:len(e.tokens)]) {
			continue
		}
		if len(e.tokens) == len(prefix) {
			if !e.ready {
				return cacheLookup{wait: true}
			}
			return cacheLookup{exact: e, reuse: len(prefix)}
		}
		consider(e, len(e.tokens))
	}
	// Everything below the deepest page-aligned match point shares exactly
	// dmax aligned tokens with the probe.
	if dmax > 0 {
		sub := node
		if partial != nil {
			sub = partial
		}
		c.walkEntries(sub, func(e *prefixEntry) { consider(e, dmax) })
	}
	if buildReuse > lk.reuse {
		return cacheLookup{wait: true}
	}
	return lk
}
