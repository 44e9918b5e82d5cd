// Package clusterkv is a pure-Go implementation of ClusterKV (Liu et al.,
// DAC 2025): recallable LLM KV-cache compression that selects tokens at the
// granularity of semantic clusters. It bundles:
//
//   - the ClusterKV method itself — cosine K-means over key vectors,
//     inner-product cluster selection with budget trimming, incremental
//     decode-time clustering, and a cluster-granularity recall cache;
//   - the baselines the paper compares against (Quest, InfiniGen, H2O,
//     StreamingLLM, full KV);
//   - a deterministic Transformer inference engine and synthetic semantic
//     workloads standing in for the paper's models and datasets;
//   - an analytic GPU/PCIe cost model and a benchmark harness that
//     regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
//	sel := clusterkv.New(clusterkv.DefaultConfig())
//	seq := m.NewSequence(sel, 1024) // 1024-token KV budget
//	seq.Prefill(prompt, nil)
//	logits := make([]float32, m.Config().VocabSize)
//	seq.DecodeInto(nextToken, logits)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for paper-vs-measured
// results. The examples/ directory contains runnable walkthroughs.
package clusterkv

import (
	"io"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/bench"
	"clusterkv/internal/cluster"
	"clusterkv/internal/core"
	"clusterkv/internal/fleet"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/memsim"
	"clusterkv/internal/metrics"
	"clusterkv/internal/model"
	"clusterkv/internal/obs"
	"clusterkv/internal/parallel"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// ---- The ClusterKV method -------------------------------------------------

// Config holds every ClusterKV tunable (sink tokens, C0 = L/ClusterRatio,
// decode-window m and C+, cache horizon R, clustering metric, ...).
type Config = core.Config

// ClusterKV is the compression method: an attention Selector that clusters
// keys in semantic space and recalls whole clusters per decode step.
type ClusterKV = core.ClusterKV

// DefaultConfig returns the paper's default configuration (§III/§IV).
func DefaultConfig() Config { return core.NewConfig() }

// New builds a ClusterKV selector.
func New(cfg Config) *ClusterKV { return core.New(cfg) }

// Metric is the clustering distance: Cosine (default), L2 or InnerProduct.
type Metric = cluster.Metric

// Clustering distance metrics (paper §III-B and the Fig. 11b ablation).
const (
	Cosine       = cluster.Cosine
	L2           = cluster.L2
	InnerProduct = cluster.InnerProduct
)

// ---- Selector contract and baselines ---------------------------------------

// Selector is the contract between inference engines and compression
// methods; all methods in this module implement it.
type Selector = attention.Selector

// SelStats are the operation counters every Selector accumulates.
type SelStats = attention.SelStats

// Baseline configurations.
type (
	// QuestConfig configures the Quest (ICML'24) reimplementation.
	QuestConfig = baselines.QuestConfig
	// InfiniGenConfig configures the InfiniGen (OSDI'24) reimplementation.
	InfiniGenConfig = baselines.InfiniGenConfig
	// H2OConfig configures the H2O (NeurIPS'23) reimplementation.
	H2OConfig = baselines.H2OConfig
	// StreamingConfig configures the StreamingLLM (ICLR'24) reimplementation.
	StreamingConfig = baselines.StreamingConfig
)

// NewQuest builds the page-granularity recall baseline.
func NewQuest(cfg QuestConfig) Selector { return baselines.NewQuest(cfg) }

// DefaultQuestConfig returns the original Quest settings (page size 16).
func DefaultQuestConfig() QuestConfig { return baselines.NewQuestConfig() }

// NewInfiniGen builds the SVD partial-key recall baseline.
func NewInfiniGen(cfg InfiniGenConfig) Selector { return baselines.NewInfiniGen(cfg) }

// DefaultInfiniGenConfig returns the original InfiniGen settings.
func DefaultInfiniGenConfig() InfiniGenConfig { return baselines.NewInfiniGenConfig() }

// NewH2O builds the non-recallable heavy-hitter eviction baseline.
func NewH2O(cfg H2OConfig) Selector { return baselines.NewH2O(cfg) }

// DefaultH2OConfig returns the original H2O settings.
func DefaultH2OConfig() H2OConfig { return baselines.NewH2OConfig() }

// NewStreamingLLM builds the sinks+recency baseline.
func NewStreamingLLM(cfg StreamingConfig) Selector { return baselines.NewStreamingLLM(cfg) }

// DefaultStreamingConfig returns sink/recency defaults.
func DefaultStreamingConfig() StreamingConfig { return baselines.NewStreamingConfig() }

// NewFullKV builds the uncompressed full-attention reference.
func NewFullKV() Selector { return baselines.NewFullKV() }

// ---- Transformer engine -----------------------------------------------------

// Model is the deterministic Transformer inference engine (MHA/GQA + RoPE +
// SwiGLU + RMSNorm) with pluggable KV selection.
type Model = model.Model

// ModelConfig describes a model shape plus synthetic-structure knobs.
type ModelConfig = model.Config

// Sequence is one generation stream bound to a Selector and budget.
type Sequence = model.Sequence

// Snapshot is a frozen KV prefix that many sequences can fork from without
// re-running prefill (Sequence.Snapshot / Model.NewSequenceFrom) — the
// substrate of the serving engine's prefix cache.
type Snapshot = model.Snapshot

// BatchDecoder is the decode step: it advances a cohort of sequences in
// lock-step, amortizing every weight matrix over the cohort with one blocked
// GEMM per matrix per layer. Sequence.DecodeInto is the same step over a
// cohort of one, and a stream's logits are bit-identical at any cohort size
// and pool width (DESIGN.md §13); build one per serving loop with
// Model.NewBatchDecoder.
type BatchDecoder = model.BatchDecoder

// DefaultModelConfig returns the small evaluation model (4×4×16, d_model 64).
func DefaultModelConfig() ModelConfig { return model.DefaultConfig() }

// NewModel builds a model with deterministic structured weights.
func NewModel(cfg ModelConfig) *Model { return model.New(cfg) }

// ---- Paged KV arena ---------------------------------------------------------

// KVArena is the reference-counted page allocator behind every KV store:
// forks share fully common pages copy-on-write, and an engine-owned arena
// meters exact page residency for admission control (DESIGN.md §7).
type KVArena = kvcache.Arena

// DefaultKVPageTokens is the default arena page size in tokens.
const DefaultKVPageTokens = kvcache.DefaultPageTokens

// NewKVArena builds an arena with the given page size; acct (may be nil) is
// charged pageTokens slots per live page.
func NewKVArena(pageTokens int, acct *KVAccountant) *KVArena {
	return kvcache.NewArena(pageTokens, acct)
}

// KVAccountant tracks aggregate KV slots against a budget (see
// kvcache.Accountant).
type KVAccountant = kvcache.Accountant

// NewKVAccountant returns an accountant with the given capacity in token
// slots (<= 0 for unlimited).
func NewKVAccountant(capacity int64) *KVAccountant { return kvcache.NewAccountant(capacity) }

// NewTieredKVAccountant returns an accountant with separate device and host
// capacities: admission gates on their sum, and the serving engine keeps the
// device side under its capacity by spilling cold slots host-ward.
func NewTieredKVAccountant(deviceCap, hostCap int64) *KVAccountant {
	return kvcache.NewTieredAccountant(deviceCap, hostCap)
}

// TransferRuntime is the tiered-KV transfer accountant: page-granular
// fetches, prefetches and offloads applied in program order and charged to
// one modeled PCIe channel, against a modeled compute clock (no goroutine,
// no wall-clock reads). Engines create one per instance; selectors that
// implement the RuntimeAware extension charge their simulated KV movement
// to it and gain layer-ahead prefetch.
type TransferRuntime = kvcache.TransferRuntime

// TransferChannel models the simulated host↔device link (seconds per page)
// and the compute window one layer gives a prefetch to hide behind.
type TransferChannel = kvcache.Channel

// TransferOverlap is the runtime's copy/compute overlap telemetry: modeled
// channel-busy seconds versus the portion exposed to compute, plus
// layer-ahead prefetch counters.
type TransferOverlap = metrics.Overlap

// NewTransferRuntime builds a transfer runtime on the given channel. A
// caller driving a selector by hand calls Advance once per decode step.
func NewTransferRuntime(ch TransferChannel) *TransferRuntime {
	return kvcache.NewTransferRuntime(ch)
}

// ---- Serving ----------------------------------------------------------------

// Engine is the concurrent inference server: continuous batching across many
// sequences, admission control against a global KV budget, shared-prefix
// prefill caching, per-request selectors, graceful drain.
type Engine = serve.Engine

// EngineConfig holds the engine tunables (workers, batch size, queue
// capacity, global KV budget, seed).
type EngineConfig = serve.Config

// ServeRequest describes one generation job for the Engine.
type ServeRequest = serve.Request

// ServeResponse is the outcome of one served request.
type ServeResponse = serve.Response

// ServeTicket is the handle returned by Engine.Submit.
type ServeTicket = serve.Ticket

// ServeMetrics is a snapshot of the engine's aggregate serving metrics.
type ServeMetrics = serve.Metrics

// Serving errors surfaced in ServeResponse.Err.
var (
	ErrEngineClosed    = serve.ErrClosed
	ErrRequestAborted  = serve.ErrAborted
	ErrBadServeRequest = serve.ErrBadRequest
	ErrServeInternal   = serve.ErrInternal
	ErrRequestTooLarge = serve.ErrTooLarge
)

// NewEngine starts a serving engine over the model. Callers must Close it.
func NewEngine(m *Model, cfg EngineConfig) *Engine { return serve.NewEngine(m, cfg) }

// DefaultEngineConfig returns the default serving configuration.
func DefaultEngineConfig() EngineConfig { return serve.DefaultConfig() }

// ---- Fleet serving ----------------------------------------------------------

// FleetRouter places a request stream across N engine replicas: prefix-
// affinity routing (requests land where their shared prefix is already
// cached), per-replica admission backpressure, and SLO-aware scheduling over
// modeled TTFT/TBT. Router.Run is deterministic per seed; with one replica
// it reproduces Engine.Run token-for-token (DESIGN.md §9).
type FleetRouter = fleet.Router

// FleetConfig holds the fleet tunables (replica count, policy, per-replica
// engine config, modeled SLOs).
type FleetConfig = fleet.Config

// FleetPolicy selects the routing policy.
type FleetPolicy = fleet.Policy

// Fleet routing policies.
const (
	// FleetAffinity routes by shared-prefix residency with a least-loaded,
	// consistent-hash-tiebroken fallback (the default).
	FleetAffinity = fleet.PolicyAffinity
	// FleetRoundRobin is the cache-oblivious round-robin baseline.
	FleetRoundRobin = fleet.PolicyRoundRobin
	// FleetLeastLoaded balances KV pages and queue depth, ignoring caches.
	FleetLeastLoaded = fleet.PolicyLeastLoaded
)

// ParseFleetPolicy parses a policy flag value ("affinity", "rr",
// "leastloaded").
func ParseFleetPolicy(s string) (FleetPolicy, error) { return fleet.ParsePolicy(s) }

// FleetResponse is the outcome of one routed request: the engine response
// plus the serving replica and modeled TTFT/TBT.
type FleetResponse = fleet.Response

// FleetTicket is the handle returned by FleetRouter.Submit.
type FleetTicket = fleet.Ticket

// FleetSummary is a snapshot of fleet-wide routing and serving state.
type FleetSummary = fleet.Summary

// ErrFleetSLOShed reports a request shed because every replica's modeled
// TTFT missed the configured SLO.
var ErrFleetSLOShed = fleet.ErrSLOShed

// NewFleetRouter builds a fleet of cfg.Replicas engines over one model.
// Callers must Close (or Shutdown) it.
func NewFleetRouter(m *Model, cfg FleetConfig) *FleetRouter { return fleet.NewRouter(m, cfg) }

// DefaultFleetConfig returns a 2-replica affinity-routing fleet config.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// Arrival is one event of an open-loop arrival process.
type Arrival = workload.Arrival

// PoissonArrivals draws n seeded open-loop arrivals at mean rate req/s.
func PoissonArrivals(seed uint64, n int, rate float64) []Arrival {
	return workload.PoissonArrivals(seed, n, rate)
}

// Arrivals materialises a load's embedded interarrival gaps as absolute
// submission times.
func Arrivals(load []QARequest) []Arrival { return workload.Arrivals(load) }

// ---- Observability ----------------------------------------------------------

// Tracer is the deterministic structured event recorder: a bounded ring of
// typed events on the modeled clock (rounds, admissions, tiering, transfers,
// fleet placement), shared by every replica of a run. Attach one via
// EngineConfig.Trace (per-engine) or FleetConfig.Trace (fleet-wide).
// Tracing never perturbs schedules: traced and untraced runs produce
// identical token streams (locked by the determinism suites).
type Tracer = obs.Tracer

// TraceEvent is one recorded event.
type TraceEvent = obs.Event

// TraceEventType discriminates TraceEvent kinds.
type TraceEventType = obs.EventType

// TraceRecorder is the per-replica emission handle (zero allocation and a
// single branch when disabled). The zero value is a disabled recorder.
type TraceRecorder = obs.Recorder

// TraceSink receives events synchronously as they are recorded.
type TraceSink = obs.Sink

// NewTracer builds a tracer with a ring of the given capacity (<= 0 picks
// the default, obs.DefaultRingCapacity).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// WriteChromeTrace renders recorded events as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto (DESIGN.md §10).
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// WriteChromeTraceFrom renders a tracer's retained events as Chrome
// trace_event JSON like WriteChromeTrace, and additionally emits a warning
// instant at the start of the timeline when the tracer's bounded ring dropped
// events, so truncated timelines are never mistaken for complete ones.
func WriteChromeTraceFrom(w io.Writer, t *Tracer) error {
	return obs.WriteChromeTraceFrom(w, t)
}

// Attribution aggregates per-request latency breakdowns into per-phase
// totals, quantiles and a top-K slowest list (DESIGN.md §14). Engines expose
// theirs via Engine.Attribution when EngineConfig.Attribution is set; fleets
// merge replica breakdowns into FleetSummary.Attribution.
type Attribution = obs.Attribution

// AttributionSnapshot is a point-in-time copy of an Attribution aggregate,
// renderable as a table (WriteTable/String) and exportable into a
// MetricsRegistry (FillRegistry).
type AttributionSnapshot = obs.AttributionSnapshot

// LatencyBreakdown is one request's span tree on the modeled clock: its
// queue/admission/prefill/decode/interference/tiering phases tile the
// request's modeled wall time exactly, with transfer-overlap and SLO-margin
// telemetry alongside. Served responses carry one when attribution is on.
type LatencyBreakdown = obs.Breakdown

// LatencyPhase discriminates attribution phases (queue, admit, prefill,
// decode, interference, tiering).
type LatencyPhase = obs.Phase

// MetricsRegistry is the unified labeled-metrics registry. Engine, fleet and
// arena telemetry publish into one via their FillRegistry methods; WriteText
// renders Prometheus-style text exposition.
type MetricsRegistry = obs.Registry

// MetricLabel is one name="value" metric label.
type MetricLabel = obs.Label

// NewMetricsRegistry builds an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ML builds a MetricLabel.
func ML(name, value string) MetricLabel { return obs.L(name, value) }

// ---- Intra-op parallelism ---------------------------------------------------

// WorkerPool is the shared intra-op worker pool behind the blocked matrix
// kernels, the parallel prefill, K-means and cluster scoring. Results are
// bit-identical to serial at any pool width (see internal/parallel).
type WorkerPool = parallel.Pool

// NewWorkerPool builds a pool with up to width concurrent executors.
func NewWorkerPool(width int) *WorkerPool { return parallel.NewPool(width) }

// IntraOpPool returns the process-wide pool all kernels draw from
// (GOMAXPROCS-sized at startup).
func IntraOpPool() *WorkerPool { return parallel.Default() }

// SetIntraOpWorkers resizes the process-wide intra-op pool. Outputs are
// unaffected — only throughput changes. Safe at any time: kernels already
// in flight on the old pool finish correctly and new ones use the new
// width.
func SetIntraOpWorkers(width int) { parallel.SetDefaultWidth(width) }

// QARequest is one request of a synthetic serving load (shared-document QA).
type QARequest = workload.QARequest

// LoadConfig shapes a synthetic serving load.
type LoadConfig = workload.LoadConfig

// DefaultLoadConfig returns a small 8-tenant QA load over two shared docs.
func DefaultLoadConfig() LoadConfig { return workload.DefaultLoadConfig() }

// NewLoad materialises a deterministic serving load.
func NewLoad(cfg LoadConfig) []QARequest { return workload.NewLoad(cfg) }

// Nested-prefix session loads (multi-turn chat, agentic re-entry, templated
// RAG) exercising the radix prefix cache's partial reuse.
type (
	// ConversationConfig shapes a multi-turn chat load.
	ConversationConfig = workload.ConversationConfig
	// AgenticConfig shapes an agentic re-entry load.
	AgenticConfig = workload.AgenticConfig
	// RAGConfig shapes a templated retrieval-augmented load.
	RAGConfig = workload.RAGConfig
)

// DefaultConversationConfig returns a small 4-session, 4-turn chat load.
func DefaultConversationConfig() ConversationConfig { return workload.DefaultConversationConfig() }

// ConversationLoad materialises a deterministic multi-turn chat load.
func ConversationLoad(cfg ConversationConfig) []QARequest { return workload.ConversationLoad(cfg) }

// DefaultAgenticConfig returns a small 3-agent, 5-step re-entry load.
func DefaultAgenticConfig() AgenticConfig { return workload.DefaultAgenticConfig() }

// AgenticLoad materialises a deterministic agentic re-entry load.
func AgenticLoad(cfg AgenticConfig) []QARequest { return workload.AgenticLoad(cfg) }

// DefaultRAGConfig returns a small templated-RAG load over a shared chunk pool.
func DefaultRAGConfig() RAGConfig { return workload.DefaultRAGConfig() }

// RAGLoad materialises a deterministic templated-RAG load.
func RAGLoad(cfg RAGConfig) []QARequest { return workload.RAGLoad(cfg) }

// ---- Workloads ----------------------------------------------------------------

// Workload generators standing in for the paper's datasets (DESIGN.md §1).
type (
	// Trace is a synthetic semantic attention trace (keys/values/queries).
	Trace = workload.Trace
	// TraceConfig controls trace generation.
	TraceConfig = workload.TraceConfig
	// TaskSpec defines one LongBench-like task.
	TaskSpec = workload.TaskSpec
	// Task is a materialised task instance.
	Task = workload.Task
	// DocConfig controls token-document generation.
	DocConfig = workload.DocConfig
	// RetrievalLM is the language-modeling substrate of the Fig. 10 study.
	RetrievalLM = workload.RetrievalLM
)

// DefaultTraceConfig returns the evaluation trace shape.
func DefaultTraceConfig() TraceConfig { return workload.DefaultTraceConfig() }

// NewTrace generates a semantic trace context.
func NewTrace(cfg TraceConfig) *Trace { return workload.NewTrace(cfg) }

// LongBenchTasks returns the eight LongBench-like task specs (§V-A).
func LongBenchTasks(maxCtx int) []TaskSpec { return workload.LongBenchTasks(maxCtx) }

// BuildTask materialises a task instance.
func BuildTask(spec TaskSpec, seed uint64) *Task { return workload.BuildTask(spec, seed) }

// DefaultDocConfig matches DefaultModelConfig's vocabulary.
func DefaultDocConfig() DocConfig { return workload.DefaultDocConfig() }

// Doc generates a topic-segmented token document.
func Doc(cfg DocConfig, n int) []int { return workload.Doc(cfg, n) }

// PG19Stream generates a PG19-like language-modeling stream.
func PG19Stream(cfg DocConfig, n int) []int { return workload.PG19Stream(cfg, n) }

// ---- Evaluation ---------------------------------------------------------------

// RunResult aggregates recall and attention-fidelity measurements of one
// (trace, method, budget) run.
type RunResult = bench.RunResult

// RunTrace replays a trace against a selector at the given budget.
func RunTrace(tr *Trace, sel Selector, budget int) *RunResult {
	return bench.RunTrace(tr, sel, budget)
}

// NewRetrievalLM builds the Fig. 10 language-modeling substrate: a stream
// self-generated under full attention, so full KV is optimal by construction
// and perplexity deviations measure attention-approximation error.
func NewRetrievalLM(doc DocConfig, tc TraceConfig, n, warmup int, lambda float32) *RetrievalLM {
	return workload.NewRetrievalLM(doc, tc, n, warmup, lambda)
}

// RetrievalPerplexity streams the LM's tokens teacher-forced through a
// selector and returns perplexity at each checkpoint length.
func RetrievalPerplexity(lm *RetrievalLM, sel Selector, budget int, checkpoints []int) []float64 {
	return bench.RetrievalPerplexity(lm, sel, budget, checkpoints)
}

// Recall returns |selected ∩ truth|/|truth| (paper §V-B).
func Recall(selected, truth []int) float64 { return metrics.Recall(selected, truth) }

// ---- Cost model ------------------------------------------------------------------

// Hardware models a GPU + host link for the latency experiments.
type Hardware = memsim.Hardware

// ModelShape captures a served model's dimensions for the cost model.
type ModelShape = memsim.ModelShape

// Cost-model parameter bundles measured from algorithm runs.
type (
	// ClusterKVCounts parameterise a modeled ClusterKV decode step.
	ClusterKVCounts = memsim.ClusterKVCounts
	// QuestCounts parameterise a modeled Quest decode step.
	QuestCounts = memsim.QuestCounts
	// InfiniGenCounts parameterise a modeled InfiniGen decode step.
	InfiniGenCounts = memsim.InfiniGenCounts
	// DecodeBreakdown itemises a modeled decode step's latency.
	DecodeBreakdown = memsim.DecodeBreakdown
)

// AdaRTX6000 returns the paper's GPU model.
func AdaRTX6000() Hardware { return memsim.AdaRTX6000() }

// Llama31_8B returns the Llama-3.1-8B shape (Fig. 12/13b).
func Llama31_8B() ModelShape { return memsim.Llama31_8B() }

// OPT67B returns the OPT-6.7B shape (Fig. 13a).
func OPT67B() ModelShape { return memsim.OPT67B() }
