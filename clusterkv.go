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
//   - an analytic GPU/PCIe cost model and the trace replay the paper's
//     recall and fidelity numbers come from.
//
// Example is the quick start; ExampleClusterKV and ExampleEngine walk through
// one decode step's selection and the serving engine. See DESIGN.md for the
// architecture and EXPERIMENTS.md for paper-vs-measured results.
package clusterkv

import (
	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/bench"
	"clusterkv/internal/core"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/memsim"
	"clusterkv/internal/model"
	"clusterkv/internal/parallel"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// ---- The ClusterKV method -------------------------------------------------

// Config holds every ClusterKV tunable (sink tokens, prefill segment length,
// decode-window m and C+, cache horizon R, clustering metric, ...); the
// prefill cluster count follows the paper's C0 = L/80 rule.
type Config = core.Config

// ClusterKV is the compression method: an attention Selector that clusters
// keys in semantic space and recalls whole clusters per decode step.
type ClusterKV = core.ClusterKV

// DefaultConfig returns the paper's default configuration (§III/§IV).
func DefaultConfig() Config { return core.NewConfig() }

// New builds a ClusterKV selector.
func New(cfg Config) *ClusterKV { return core.New(cfg) }

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

// NewKVArena builds an arena with the given page size.
func NewKVArena(pageTokens int) *KVArena { return kvcache.NewArena(pageTokens) }

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

// NewEngine starts a serving engine over the model. Callers must Close it.
func NewEngine(m *Model, cfg EngineConfig) *Engine { return serve.NewEngine(m, cfg) }

// DefaultEngineConfig returns the default serving configuration.
func DefaultEngineConfig() EngineConfig { return serve.DefaultConfig() }

// ---- Intra-op parallelism ---------------------------------------------------

// SetIntraOpWorkers resizes the process-wide intra-op pool. Outputs are
// unaffected — only throughput changes. Safe at any time: kernels already
// in flight on the old pool finish correctly and new ones use the new
// width.
func SetIntraOpWorkers(width int) { parallel.SetDefaultWidth(width) }

// ---- Workloads ----------------------------------------------------------------

// QARequest is one request of a synthetic serving load (shared-document QA).
type QARequest = workload.QARequest

// LoadConfig shapes a synthetic serving load.
type LoadConfig = workload.LoadConfig

// DefaultLoadConfig returns a small 8-tenant QA load over two shared docs.
func DefaultLoadConfig() LoadConfig { return workload.DefaultLoadConfig() }

// NewLoad materialises a deterministic serving load.
func NewLoad(cfg LoadConfig) []QARequest { return workload.NewLoad(cfg) }

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

// ---- Evaluation ---------------------------------------------------------------

// RunResult aggregates recall and attention-fidelity measurements of one
// (trace, method, budget) run.
type RunResult = bench.RunResult

// RunTrace replays a trace against a selector at the given budget.
func RunTrace(tr *Trace, sel Selector, budget int) *RunResult {
	return bench.RunTrace(tr, sel, budget)
}

// ---- Cost model ------------------------------------------------------------------

// Hardware models a GPU + host link for the latency experiments.
type Hardware = memsim.Hardware

// ModelShape captures a served model's dimensions for the cost model.
type ModelShape = memsim.ModelShape

// ClusterKVCounts parameterise a modeled ClusterKV decode step.
type ClusterKVCounts = memsim.ClusterKVCounts

// AdaRTX6000 returns the paper's GPU model.
func AdaRTX6000() Hardware { return memsim.AdaRTX6000() }

// Llama31_8B returns the Llama-3.1-8B shape (Fig. 12/13b).
func Llama31_8B() ModelShape { return memsim.Llama31_8B() }
