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
//   - admission control: a bounded intake queue provides backpressure, and
//     the engine's paged arena is the one KV meter against a global budget:
//     its live pages are the *exact* footprint (shared copy-on-write pages
//     counted once), and admission holds only prefill pages plus a small
//     decode headroom until the round's prefill has allocated them;
//   - prefix caching: requests that declare a shared prompt prefix (the
//     long-document multi-question scenario ClusterKV targets) reuse one
//     prefill via copy-on-write kvcache.Store forks instead of recomputing
//     it, sharing every fully common KV page block-granularly. A lookup
//     compares the prefix with every cached entry, so nested prefixes
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
	"math"
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
	// SharedPrefixLen marks Prompt[:SharedPrefixLen] as shareable: the
	// prefix cache compares it token by token with every cached prefix and
	// reuses what PrefixReuse allows, a whole identical prefix included.
	// 0 disables sharing.
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
	// A negative, NaN or infinite temperature is rejected with ErrBadRequest.
	Temperature float64
}

// Response is the outcome of one request.
type Response struct {
	// ID is the engine-assigned request id, increasing in submission order;
	// it is the ticket's id whether or not the request was admitted (0 only
	// when the engine was already closed).
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
	// cache partially covered a new prefix, 0 on a cold build.
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
	// ModelTTFT and ModelTBT are the request's modeled time-to-first-token
	// and time-between-tokens in seconds on the engine's modeled round clock
	// (DESIGN.md §14): the clock from before the round the scheduler first
	// saw the request to the end of its admission round, and the clock from
	// there to retirement per later token. Deterministic; zero for a request
	// never admitted (ModelTBT also for a single-token one).
	ModelTTFT, ModelTBT float64
	// Breakdown is the request's latency attribution span tree on the same
	// clock, tiling its modeled wall time into phases; nil only for requests
	// aborted by Shutdown or rejected at intake. Its phase tiling is
	// deterministic; the XferExposedSec/XferHiddenSec pair is this request's
	// share of the engine's modeled transfer time (see obs.Breakdown).
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

// valid reports whether the request is well formed, every prompt token a
// vocabulary index below vocab, so malformed requests are rejected at intake
// instead of panicking a decode worker mid-round.
func (r *Request) valid(vocab int) bool {
	if len(r.Prompt) == 0 || r.MaxNewTokens <= 0 ||
		r.SharedPrefixLen < 0 || r.SharedPrefixLen >= len(r.Prompt) ||
		r.Temperature < 0 || math.IsNaN(r.Temperature) || math.IsInf(r.Temperature, 0) {
		return false
	}
	for _, t := range r.Prompt {
		if t < 0 || t >= vocab {
			return false
		}
	}
	return true
}

// budgeted reports whether the request's selector keeps at most Budget
// tokens per head device-resident. Only then are its pages beyond Budget host
// memory: admission caps its hold at Budget, and the tiering pass may spill
// those pages.
func (r *Request) budgeted() bool { return r.Budget > 0 && r.NewSelector != nil }
