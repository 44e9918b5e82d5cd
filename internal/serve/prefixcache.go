package serve

import (
	"slices"
	"sync/atomic"
)

// The engine's prefix cache: the live entries in admission order. A lookup
// scans them all, so nested prefixes (multi-turn chat, agentic re-entry,
// templated RAG) need no shared structure: a lookup that misses exactly still
// finds the cached entry sharing the most with the probe and reuses its pages
// up to the longest page-aligned common prefix via a zero-copy truncated fork
// (model.Snapshot.Prefix). Under a KVBudget, eviction keeps the live entries
// to what the budget holds, so the scan costs microseconds against
// milliseconds of prefill. With a budget of 0 nothing is ever evicted: the
// cache holds one entry per distinct prefix served, and grows with the
// number of distinct documents (an open-loop server over an open document
// set should set a budget).
//
// Entries own their pages through their snapshots. Eviction is entry-granular
// LRU with a deterministic (lastUsed, seq) order, where seq is the admission
// sequence number, so two entries idle since the same round always evict
// oldest-admitted first.
//
// Exactly one goroutine (the scheduler loop) touches the cache; no locking
// anywhere here. insert and remove republish the entries' token lists through
// an atomic pointer, the one view other goroutines read
// (Engine.CachedPrefixes), so a publish happens before any ticket the same
// round resolves.

// cacheLookup is the cache's answer for one declared prefix.
type cacheLookup struct {
	// exact is the ready entry whose tokens equal the probed prefix, nil
	// otherwise. When set, reuse == len(prefix).
	exact *prefixEntry
	// best is the ready entry offering the deepest reuse when there is no
	// exact match: a cached entry whose first `reuse` tokens match the
	// probed prefix (reuse is page-aligned unless the whole entry is a prefix
	// of the probe). nil when nothing overlaps.
	best  *prefixEntry
	reuse int
	// wait reports that a still-building entry would serve this prefix
	// strictly better than any ready one; the scheduler holds the request a
	// round rather than duplicating prefill work already in flight.
	wait bool
}

type prefixCache struct {
	// byAdmit lists every live entry in admission order.
	byAdmit []*prefixEntry
	// published holds byAdmit's token lists, replaced whole on every insert
	// and remove.
	published  atomic.Pointer[[][]int]
	pageTokens int
}

// entries appends every live entry to dst in admission (seq) order.
func (c *prefixCache) entries(dst []*prefixEntry) []*prefixEntry {
	return append(dst, c.byAdmit...)
}

// evictVictim returns the LRU idle published entry — minimal (lastUsed, seq),
// refs == 0, ready — or nil when none is evictable.
func (c *prefixCache) evictVictim() *prefixEntry {
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

func (c *prefixCache) insert(e *prefixEntry) {
	c.byAdmit = append(c.byAdmit, e)
	c.publish()
}

func (c *prefixCache) remove(e *prefixEntry) {
	c.byAdmit = slices.DeleteFunc(c.byAdmit, func(x *prefixEntry) bool { return x == e })
	c.publish()
}

// publish stores a fresh list of the live entries' tokens in admission order.
func (c *prefixCache) publish() {
	toks := make([][]int, len(c.byAdmit))
	for i, e := range c.byAdmit {
		toks[i] = e.tokens
	}
	c.published.Store(&toks)
}

// PrefixReuse is the one prefix-reuse rule, shared by the engine's cache and
// the fleet router's placement ledger: the tokens of probe a cached prefix
// lets a request skip. A cached prefix that is a token-prefix of probe is
// reused whole, unaligned tail included; any other shares its common prefix
// with probe rounded down to whole pages, the depth a truncated fork of its
// snapshot can share. pageTokens must be positive.
func PrefixReuse(cached, probe []int, pageTokens int) int {
	if pageTokens <= 0 {
		panic("serve: PrefixReuse needs a positive pageTokens")
	}
	n := 0
	for n < len(cached) && n < len(probe) && cached[n] == probe[n] {
		n++
	}
	if n == len(cached) {
		return n
	}
	return n / pageTokens * pageTokens
}

// lookup ranks every live entry by the reuse it offers the probe
// (PrefixReuse). An entry token-equal to the probe answers outright: an
// exact hit when ready (reuse = len(prefix)), wait while it builds — admit
// guarantees at most one such entry exists. Ready entries compete on reuse,
// the earliest admitted winning a tie. If a still-building entry would beat
// every ready candidate, lookup reports wait instead: the request holds a
// round rather than duplicating the build.
func (c *prefixCache) lookup(prefix []int) cacheLookup {
	var lk cacheLookup
	buildReuse := 0 // deepest reuse a still-building entry would offer
	for _, e := range c.byAdmit {
		reuse := PrefixReuse(e.tokens, prefix, c.pageTokens)
		if reuse == len(e.tokens) && reuse == len(prefix) {
			if !e.ready {
				return cacheLookup{wait: true}
			}
			return cacheLookup{exact: e, reuse: reuse}
		}
		switch {
		case !e.ready:
			buildReuse = max(buildReuse, reuse)
		case reuse > lk.reuse:
			lk.best, lk.reuse = e, reuse
		}
	}
	if buildReuse > lk.reuse {
		return cacheLookup{wait: true}
	}
	return lk
}
