// Package serve implements a concurrent inference-serving engine on top of
// the transformer model and the pluggable KV-compression selectors: the
// subsystem that turns the single-stream reproduction into a multi-tenant
// server and lets ClusterKV be measured under load.
//
// The engine implements the serving-side techniques the paper's systems
// context assumes:
//
//   - continuous batching: admission happens at every decode-round boundary,
//     so a finished request's slot is refilled immediately instead of
//     waiting for a whole batch to drain;
//   - admission control: a bounded intake queue provides backpressure, and a
//     shared kvcache.Accountant tracks aggregate KV residency against a
//     global budget. The engine's paged arena meters *exact* page residency
//     (shared copy-on-write pages charged once, admission on prefill pages
//     plus a small decode headroom);
//   - prefix caching: requests that declare a shared prompt prefix (the
//     long-document multi-question scenario ClusterKV targets) reuse one
//     prefill via copy-on-write kvcache.Store forks instead of recomputing
//     it, sharing every fully common KV page block-granularly. The cache is
//     a radix tree over page-aligned token runs, so nested prefixes
//     (multi-turn chat, agentic re-entry, templated RAG) reuse the longest
//     page-aligned common prefix of any cached entry even without an exact
//     match;
//   - per-request selectors: every request brings its own Selector factory,
//     so ClusterKV, Quest and FullKV tenants can share one server;
//   - deterministic execution: given a seed and a fixed submission order,
//     token streams and scheduling rounds are reproducible run-to-run.
//
// Lifecycle: NewEngine starts the scheduler and worker pool; Submit enqueues
// a request and returns a Ticket; Run is the deterministic batch
// convenience; Close drains gracefully; Shutdown aborts on context expiry.
package serve

import (
	"errors"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/obs"
)

// Errors returned in Response.Err.
var (
	// ErrClosed reports a Submit after Close/Shutdown began.
	ErrClosed = errors.New("serve: engine closed")
	// ErrAborted reports a request cancelled by Shutdown before completion.
	ErrAborted = errors.New("serve: request aborted by shutdown")
	// ErrBadRequest reports an invalid request (empty prompt, non-positive
	// MaxNewTokens, out-of-range SharedPrefixLen, out-of-vocabulary token).
	// It is raised only by intake validation, never by a fault mid-decode.
	ErrBadRequest = errors.New("serve: invalid request")
	// ErrTooLarge reports a request whose admission estimate (prefill pages
	// plus decode headroom) exceeds the engine's whole KV capacity, device
	// plus host, so it could never be admitted.
	ErrTooLarge = errors.New("serve: request exceeds global KV budget")
	// ErrInternal reports an engine-side fault: a panic recovered while
	// stepping a validated request (selector factory, arena, kernel). The
	// wrapped message carries the panic value; the request was well-formed.
	ErrInternal = errors.New("serve: internal fault")
)

// Request describes one generation job.
type Request struct {
	// Prompt is the full token prompt.
	Prompt []int
	// SharedPrefixLen marks Prompt[:SharedPrefixLen] as shareable: requests
	// carrying an identical prefix reuse a single prefill snapshot
	// (content-addressed, verified token-by-token). 0 disables sharing.
	// Must be < len(Prompt): the engine needs at least one suffix token to
	// replay selector prefill over the forked stores.
	SharedPrefixLen int
	// MaxNewTokens is the number of tokens to generate. Must be positive.
	MaxNewTokens int
	// Budget is the per-head KV token budget handed to the selector;
	// <= 0 means unbudgeted.
	Budget int
	// NewSelector builds this request's KV-selection policy (ClusterKV,
	// Quest, ...). nil requests full attention.
	NewSelector func() attention.Selector
	// Temperature > 0 enables seeded softmax sampling; 0 decodes greedily.
	Temperature float64
}

// Response is the outcome of one request.
type Response struct {
	// ID is the engine-assigned request id, increasing in submission order.
	ID uint64
	// Tokens are the generated tokens (len == MaxNewTokens on success).
	Tokens []int
	// Err is nil on success.
	Err error
	// PrefixHit reports whether the whole shared prefix was served from the
	// prefix cache instead of being prefilled.
	PrefixHit bool
	// PrefixReusedTokens is the number of prompt tokens whose prefill was
	// skipped via the prefix cache: SharedPrefixLen on a full hit, the
	// longest page-aligned (or whole-entry) cached ancestor's depth when the
	// radix cache partially covered a new prefix, 0 on a cold build.
	PrefixReusedTokens int
	// KVReserved is the admission charge in per-head token slots: the
	// page-rounded prefill estimate (plus decode headroom) the request was
	// gated on.
	KVReserved int64
	// QueueWait is the time from Submit to admission.
	QueueWait time.Duration
	// TTFT is the time from Submit to the first generated token.
	TTFT time.Duration
	// Total is the time from Submit to completion.
	Total time.Duration
	// AdmitRound and DoneRound are the scheduler rounds of admission and
	// retirement. They are wall-clock independent, so deterministic runs can
	// assert identical scheduling across repeats.
	AdmitRound, DoneRound int64
	// Breakdown is the request's latency attribution span tree on the
	// modeled attribution clock (DESIGN.md §14) — nil unless
	// Config.Attribution is set. Its phase tiling is deterministic; the
	// XferExposedSec/XferHiddenSec pair is this request's share of the
	// engine's modeled transfer time (see obs.Breakdown).
	Breakdown *obs.Breakdown
}

// Ticket is the handle returned by Submit.
type Ticket struct {
	// ID is the engine-assigned request id.
	ID uint64
	ch chan Response
}

// Done returns the channel the Response is delivered on (buffered; the
// engine never blocks on it).
func (t *Ticket) Done() <-chan Response { return t.ch }

// Wait blocks until the request completes and returns its Response.
func (t *Ticket) Wait() Response { return <-t.ch }

func failedTicket(id uint64, err error) *Ticket {
	t := &Ticket{ID: id, ch: make(chan Response, 1)}
	t.ch <- Response{ID: id, Err: err}
	return t
}

// validate reports nil for a well-formed request.
func (r *Request) validate() error {
	switch {
	case len(r.Prompt) == 0:
		return ErrBadRequest
	case r.MaxNewTokens <= 0:
		return ErrBadRequest
	case r.SharedPrefixLen < 0 || r.SharedPrefixLen >= len(r.Prompt):
		return ErrBadRequest
	}
	return nil
}

// PrefixKey content-addresses a shared prefix: the same hash the engine's
// prefix-residency index is keyed by. Routers compute it over
// Prompt[:SharedPrefixLen] and probe Engine.PrefixResident to find the
// replica that already holds the prefill.
func PrefixKey(tokens []int) uint64 { return prefixKey(tokens) }

// AlignedPrefixKeys returns the content hash of every page-aligned prefix of
// tokens (pageTokens, 2·pageTokens, ...) plus the whole slice, in one rolling
// FNV-1a pass; the last element always equals PrefixKey(tokens). These are
// the depths the engine registers in its residency index, so a router can
// probe a nested prefix from deepest to shallowest and place the request on
// the replica holding the longest match. pageTokens must be positive.
func AlignedPrefixKeys(tokens []int, pageTokens int) []uint64 {
	return alignedPrefixKeys(tokens, pageTokens)
}

func alignedPrefixKeys(tokens []int, pageTokens int) []uint64 {
	if pageTokens <= 0 {
		panic("serve: AlignedPrefixKeys needs a positive pageTokens")
	}
	out := make([]uint64, 0, len(tokens)/pageTokens+1)
	h := uint64(fnvOffset64)
	for lo := 0; lo < len(tokens); lo += pageTokens {
		h = fnv1a(h, tokens[lo:min(lo+pageTokens, len(tokens))])
		out = append(out, h)
	}
	return out
}

// prefixKey content-addresses a shared prefix with FNV-1a over its tokens.
// Hits verify the actual tokens, so a collision can never alias prefills.
func prefixKey(tokens []int) uint64 { return fnv1a(fnvOffset64, tokens) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a rolls the FNV-1a hash h forward over tokens, one round per token: the
// single spelling of the content hash behind PrefixKey, AlignedPrefixKeys and
// the residency index.
func fnv1a(h uint64, tokens []int) uint64 {
	for _, t := range tokens {
		h ^= uint64(t)
		h *= fnvPrime64
	}
	return h
}

// tokensInRange reports whether every prompt token is a valid vocabulary
// index, so malformed prompts are rejected at intake instead of panicking a
// decode worker mid-round.
func tokensInRange(tokens []int, vocab int) bool {
	for _, t := range tokens {
		if t < 0 || t >= vocab {
			return false
		}
	}
	return true
}

func sameTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
