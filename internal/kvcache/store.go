// Package kvcache implements the key/value cache substrate: per-(layer, head)
// paged stores for key and value vectors backed by a reference-counted page
// arena, with gather primitives used by sparse attention and a two-tier
// (host/device) residency ledger used by the offloading simulation. An
// arena's live pages are the exact cross-sequence footprint admission
// control meters.
//
// The paper's system offloads the full K/V to CPU memory after prefill and
// keeps only selected clusters on the GPU (§IV-A). In this reproduction the
// data always lives in process memory; the Tier ledger records *where the
// simulated copy resides* so the cost model can charge PCIe transfers for
// host-resident pages.
//
// Storage is block-granular (DESIGN.md §7): a Store is a page table over an
// Arena of fixed-size pages. Fork shares pages by reference count with
// copy-on-write on the first post-fork Append/Truncate divergence, so two
// requests that share only the first N tokens share exactly the pages fully
// covered by those N tokens — never the divergent tail's ancestors.
package kvcache

import "fmt"

// Store holds the K and V vectors of a single (layer, head) pair as a page
// table over its arena. Vectors are appended in token order; index == token
// position.
type Store struct {
	headDim int
	arena   *Arena
	pages   []*page
	n       int
}

// NewStore returns an empty store for vectors of the given head dimension,
// allocating from the process-wide DefaultArena.
func NewStore(headDim int) *Store { return NewStoreIn(DefaultArena(), headDim) }

// NewStoreIn returns an empty store allocating from the given arena. Serving
// engines pass their own arena, whose live pages their KV budget meters, so
// every page the store allocates counts against it.
func NewStoreIn(a *Arena, headDim int) *Store {
	if headDim <= 0 {
		panic("kvcache: non-positive head dimension")
	}
	if a == nil {
		panic("kvcache: nil arena")
	}
	return &Store{headDim: headDim, arena: a}
}

// HeadDim returns the per-head channel count.
func (s *Store) HeadDim() int { return s.headDim }

// Len returns the number of tokens stored.
func (s *Store) Len() int { return s.n }

// PageTokens returns the arena page size in tokens.
func (s *Store) PageTokens() int { return s.arena.pageTokens }

// NumPages returns the number of pages covering tokens [0, Len()).
func (s *Store) NumPages() int { return len(s.pages) }

// PageRows returns the number of valid token rows in page p.
func (s *Store) PageRows(p int) int {
	rows := s.n - p*s.arena.pageTokens
	if rows > s.arena.pageTokens {
		rows = s.arena.pageTokens
	}
	if rows < 0 {
		rows = 0
	}
	return rows
}

// PageRef returns the reference count of page p — introspection for sharing
// tests and the pagedkv experiment (a count > 1 means the page is shared with
// a fork or snapshot).
func (s *Store) PageRef(p int) int { return int(s.pages[p].refs.Load()) }

// PageMeta returns the sidecar published on page p, or nil. A sidecar is an
// immutable value derived from the store's rows up to and including page p;
// kvcache never looks inside it. Because pages are written only at the tail
// and Fork/Truncate share them by reference, two stores holding the same
// physical page at index p hold the same pages 0..p, so whatever one of them
// derived from those rows holds for the other (DESIGN.md §7).
func (s *Store) PageMeta(p int) any {
	if m := s.pages[p].meta.Load(); m != nil {
		return m.v
	}
	return nil
}

// SetPageMeta publishes m (occupying about bytes bytes) as page p's sidecar
// and reports whether it did. It refuses a partially filled page, whose rows
// are still being written, and a page that already carries a sidecar: the
// slot is set once, so concurrent publishers race by compare-and-swap and the
// losers keep their private copy. m must never be mutated afterwards.
func (s *Store) SetPageMeta(p int, m any, bytes int64) bool {
	if s.PageRows(p) < s.arena.pageTokens {
		return false
	}
	if !s.pages[p].meta.CompareAndSwap(nil, &pageMeta{v: m, bytes: bytes}) {
		return false
	}
	s.arena.metaBytes.Add(bytes)
	return true
}

// KeyPage returns the packed key rows of page p (PageRows(p)×HeadDim,
// row-major, aliasing page storage).
func (s *Store) KeyPage(p int) []float32 {
	return s.pages[p].keys[:s.PageRows(p)*s.headDim]
}

// ValuePage returns the packed value rows of page p (see KeyPage).
func (s *Store) ValuePage(p int) []float32 {
	return s.pages[p].vals[:s.PageRows(p)*s.headDim]
}

// Key returns the key vector of token i (aliasing page storage).
func (s *Store) Key(i int) []float32 {
	P := s.arena.pageTokens
	off := (i % P) * s.headDim
	return s.pages[i/P].keys[off : off+s.headDim]
}

// Value returns the value vector of token i (aliasing page storage).
func (s *Store) Value(i int) []float32 {
	P := s.arena.pageTokens
	off := (i % P) * s.headDim
	return s.pages[i/P].vals[off : off+s.headDim]
}

// SharedPages returns the number of leading pages that are the same physical
// page in s and o and full in both: the run of keys and values the two stores
// hold in one copy. Pages are written only at the tail and copy-on-written
// once shared, so a full page held by both holds the same rows for both; a
// copy-on-written tail, or a fork truncated mid-page, ends the run.
func (s *Store) SharedPages(o *Store) int {
	n := min(s.n, o.n) / s.arena.pageTokens
	for p := 0; p < n; p++ {
		if s.pages[p] != o.pages[p] {
			return p
		}
	}
	return n
}

// writableTail returns the tail page with room for one more row, allocating a
// fresh page at a page boundary and copy-on-writing a shared tail so the
// write can never be observed through a fork or snapshot.
func (s *Store) writableTail() *page {
	P := s.arena.pageTokens
	if s.n == len(s.pages)*P {
		pg := s.arena.alloc(s.headDim)
		s.pages = append(s.pages, pg)
		return pg
	}
	last := len(s.pages) - 1
	pg := s.pages[last]
	if pg.refs.Load() == 1 {
		// In-place write. A partial tail carries a sidecar only when this
		// sole owner truncated into a page that was full when it was
		// published; the rows are about to change under it.
		s.arena.clearMeta(pg)
		return pg
	}
	// COW: the tail page is shared with a fork/snapshot. Copy the rows this
	// store still uses into a private page and drop our reference.
	used := s.n - last*P
	np := s.arena.alloc(s.headDim)
	if used > 0 {
		pg.readRows(np.keys[:used*s.headDim], np.vals[:used*s.headDim], 0, used, s.headDim)
	}
	s.arena.release(pg, s.headDim)
	s.pages[last] = np
	return np
}

// Append adds the key and value of one token and returns its position.
func (s *Store) Append(k, v []float32) int {
	if len(k) != s.headDim || len(v) != s.headDim {
		panic(fmt.Sprintf("kvcache: Append dim mismatch: got k=%d v=%d want %d", len(k), len(v), s.headDim))
	}
	pg := s.writableTail()
	off := (s.n % s.arena.pageTokens) * s.headDim
	copy(pg.keys[off:off+s.headDim], k)
	copy(pg.vals[off:off+s.headDim], v)
	s.n++
	return s.n - 1
}

// AppendBatch adds n tokens whose keys and values are packed row-major in
// ks and vs. It returns the position of the first appended token.
func (s *Store) AppendBatch(ks, vs []float32) int {
	if len(ks) != len(vs) || len(ks)%s.headDim != 0 {
		panic("kvcache: AppendBatch length mismatch")
	}
	P := s.arena.pageTokens
	first := s.n
	rows := len(ks) / s.headDim
	done := 0
	for done < rows {
		pg := s.writableTail()
		used := s.n - (len(s.pages)-1)*P
		room := P - used
		take := rows - done
		if take > room {
			take = room
		}
		copy(pg.keys[used*s.headDim:(used+take)*s.headDim], ks[done*s.headDim:(done+take)*s.headDim])
		copy(pg.vals[used*s.headDim:(used+take)*s.headDim], vs[done*s.headDim:(done+take)*s.headDim])
		s.n += take
		done += take
	}
	return first
}

// ReadKeys copies the key rows of tokens [from, to) into dst (grown as
// needed; pass nil to allocate) and returns it, packed row-major. It is the
// non-retaining metadata read: nothing is cached on the store. Selectors that
// need a contiguous key matrix (clustering, SVD) use this with their own
// short-lived buffers.
func (s *Store) ReadKeys(from, to int, dst []float32) []float32 {
	return s.readRange(from, to, dst, true)
}

// ReadValues is ReadKeys for value rows.
func (s *Store) ReadValues(from, to int, dst []float32) []float32 {
	return s.readRange(from, to, dst, false)
}

func (s *Store) readRange(from, to int, dst []float32, keys bool) []float32 {
	if from < 0 || to > s.n || from > to {
		panic("kvcache: read range out of bounds")
	}
	d := s.headDim
	want := (to - from) * d
	if cap(dst) < want {
		dst = make([]float32, want)
	}
	dst = dst[:want]
	P := s.arena.pageTokens
	for i := from; i < to; {
		p := i / P
		off := i - p*P
		rows := min(s.PageRows(p)-off, to-i)
		out := dst[(i-from)*d : (i-from+rows)*d]
		if keys {
			s.pages[p].readRows(out, nil, off, rows, d)
		} else {
			s.pages[p].readRows(nil, out, off, rows, d)
		}
		i += rows
	}
	return dst
}

// Fork returns a store that shares s's current pages without copying, by
// retaining a reference on each. Both stores may keep appending
// independently: the first Append (or post-Truncate Append) on a shared tail
// page copies it (copy-on-write), so divergence never mutates rows the other
// side reads — fully common pages stay shared for the stores' lifetimes.
//
// Fork is the substrate of prefix-cache sharing in the serving engine: one
// prefill of a shared document is forked into every sequence that continues
// from it, and two requests sharing only the first N tokens share exactly the
// pages those N tokens cover.
func (s *Store) Fork() *Store {
	out := NewStoreIn(s.arena, s.headDim)
	out.pages = make([]*page, len(s.pages))
	for i, pg := range s.pages {
		s.arena.retain(pg)
		out.pages[i] = pg
	}
	out.n = s.n
	return out
}

// Truncate drops all tokens at positions >= n. Pages beyond the new length
// are released; a partially covered tail page is kept (and copy-on-written on
// the next Append if shared). Used by harnesses that rewind a sequence to a
// snapshot point.
func (s *Store) Truncate(n int) {
	if n < 0 || n > s.n {
		panic("kvcache: Truncate out of range")
	}
	P := s.arena.pageTokens
	keep := (n + P - 1) / P
	for _, pg := range s.pages[keep:] {
		s.arena.release(pg, s.headDim)
	}
	s.pages = s.pages[:keep]
	s.n = n
}

// Free releases every page reference held by the store, returning pages whose
// count reaches zero to the arena (and out of its footprint). The
// store is empty but reusable afterwards; Free is idempotent.
func (s *Store) Free() {
	for _, pg := range s.pages {
		s.arena.release(pg, s.headDim)
	}
	s.pages = s.pages[:0]
	s.n = 0
}
