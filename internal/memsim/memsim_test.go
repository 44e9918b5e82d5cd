package memsim

import (
	"math"
	"testing"
)

func TestShapeFootprints(t *testing.T) {
	m := Llama31_8B()
	if m.WeightBytes() != float64(m.Params)*2 {
		t.Fatal("WeightBytes")
	}
	// 2 (K,V) × 8 kv heads × 128 dim × 32 layers × 2 bytes = 128 KiB/token.
	if got := m.KVBytesPerToken(); got != 131072 {
		t.Fatalf("KVBytesPerToken = %v", got)
	}
}

func TestDecodeStepFullGrowsWithContext(t *testing.T) {
	hw := AdaRTX6000()
	m := Llama31_8B()
	a := hw.DecodeStepFull(m, 8192).Total
	b := hw.DecodeStepFull(m, 32768).Total
	if b <= a {
		t.Fatal("full-KV step must grow with context")
	}
}

func TestClusterKVStepNearlyContextInvariant(t *testing.T) {
	hw := AdaRTX6000()
	m := Llama31_8B()
	c := ClusterKVCounts{Budget: 1024, Clusters: 400, MissRate: 0.37}
	step := hw.DecodeStepClusterKV(m, c).Total
	// The step depends on budget and cluster count, not context length —
	// the core efficiency claim.
	full32 := hw.DecodeStepFull(m, 32768).Total
	if step >= full32 {
		t.Fatal("compressed step not faster than full at 32k")
	}
}

func TestClusterKVSpeedupShape(t *testing.T) {
	// Paper headline: ~2x total speedup at P=32k, D=1024, budget 1024, and
	// up to ~2.5x decoding throughput.
	hw := AdaRTX6000()
	m := Llama31_8B()
	p, d := 32768, 1024
	pre := hw.Prefill(m, p).Total
	full := pre + float64(d)*hw.DecodeStepFull(m, p+d/2).Total
	step := hw.DecodeStepClusterKV(m, ClusterKVCounts{Budget: 1024, Clusters: 410, MissRate: 0.3})
	ckv := pre + float64(d)*step.Total
	speedup := full / ckv
	if speedup < 1.5 || speedup > 3 {
		t.Fatalf("total speedup %v outside the paper's ballpark [1.5, 3]", speedup)
	}
	thr := hw.DecodeStepFull(m, p+d/2).Total / step.Total
	if thr < 1.8 || thr > 3.5 {
		t.Fatalf("throughput gain %v outside [1.8, 3.5]", thr)
	}
}

func TestTransferOverlapsCompute(t *testing.T) {
	hw := AdaRTX6000()
	m := Llama31_8B()
	// Small transfer must be hidden: total == compute + launch.
	small := hw.DecodeStepClusterKV(m, ClusterKVCounts{Budget: 256, Clusters: 100, MissRate: 0.1})
	computeSide := small.Weights + small.Attention + small.Selection
	if math.Abs(small.Total-(computeSide+small.Launch)) > 1e-9 {
		t.Fatalf("hidden transfer not overlapped: %+v", small)
	}
	// A huge miss rate on a huge budget must dominate via max().
	big := hw.DecodeStepClusterKV(m, ClusterKVCounts{Budget: 60000, Clusters: 100, MissRate: 1})
	if big.Total < big.Transfer {
		t.Fatalf("transfer-bound step not respected: %+v", big)
	}
}

func TestQuestVsClusterKVDeviationSmall(t *testing.T) {
	hw := AdaRTX6000()
	m := Llama31_8B()
	quest := hw.DecodeStepQuest(m, 32768, QuestCounts{Budget: 1024, PageSize: 16}).Total
	ckv := hw.DecodeStepClusterKV(m, ClusterKVCounts{Budget: 1024, Clusters: 410, MissRate: 0.3}).Total
	dev := math.Abs(ckv-quest) / quest
	if dev > 0.05 {
		t.Fatalf("deviation %.1f%% above the paper's 5%%", dev*100)
	}
}

func TestInfiniGenComparableToOffloadFull(t *testing.T) {
	// Paper §V-C: InfiniGen's latency is comparable to full KV.
	hw := AdaRTX6000()
	m := OPT67B()
	full := hw.DecodeStepOffloadFull(m, 2048).Total
	infini := hw.DecodeStepInfiniGen(m, 2048, InfiniGenCounts{Budget: 256, PartialDim: 32}).Total
	ratio := infini / full
	if ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("InfiniGen/full = %v, want comparable", ratio)
	}
}

func TestPrefillScalesSuperlinearly(t *testing.T) {
	hw := AdaRTX6000()
	m := Llama31_8B()
	p8 := hw.Prefill(m, 8192).Total
	p32 := hw.Prefill(m, 32768).Total
	if p32 <= 4*p8 {
		t.Fatal("prefill must grow superlinearly (quadratic attention term)")
	}
	if p32 >= 16*p8 {
		t.Fatal("prefill should not be fully quadratic (GEMM dominates)")
	}
}

func TestClusterWorkSmallShareOfPrefill(t *testing.T) {
	hw := AdaRTX6000()
	m := Llama31_8B()
	p := 32768
	// iters≈10, C0=L/80, all selection layers.
	ops := int64(10) * int64(p) * int64(p/80) * int64(m.HeadDim) * int64(m.NKVHeads) * int64(m.NLayers-2)
	frac := hw.ClusterWork(ops) / hw.Prefill(m, p).Total
	if frac < 0.01 || frac > 0.2 {
		t.Fatalf("clustering share of prefill %.1f%% outside the plausible band", frac*100)
	}
}

func TestBreakdownComposition(t *testing.T) {
	hw := AdaRTX6000()
	m := Llama31_8B()
	b := hw.DecodeStepInfiniGen(m, 8192, InfiniGenCounts{Budget: 256, PartialDim: 32})
	compute := b.Weights + b.Attention + b.Selection
	want := math.Max(compute, b.Transfer) + b.HostWork + b.Launch
	if math.Abs(b.Total-want) > 1e-12 {
		t.Fatalf("Total %v != composition %v", b.Total, want)
	}
}

func TestPageGranularTransferRoundsUp(t *testing.T) {
	hw := AdaRTX6000()
	m := Llama31_8B()
	base := ClusterKVCounts{Budget: 1000, Clusters: 400, MissRate: 0.333}
	tok := hw.DecodeStepClusterKV(m, base)

	paged := base
	paged.PageTokens = 64
	pg := hw.DecodeStepClusterKV(m, paged)

	// 333 missed tokens -> 6 pages of 64 = 384 page-tokens: the paged charge
	// must exceed the token-granular one by exactly the rounding slack.
	if pg.Transfer <= tok.Transfer {
		t.Fatalf("paged transfer %.3g not above token-granular %.3g", pg.Transfer, tok.Transfer)
	}
	want := 384 * m.KVBytesPerToken() / hw.PCIeBandwidth
	if math.Abs(pg.Transfer-want)/want > 1e-12 {
		t.Fatalf("paged transfer %.6g, want %.6g", pg.Transfer, want)
	}
	// Compute terms are untouched by the granularity switch.
	if pg.Weights != tok.Weights || pg.Attention != tok.Attention || pg.Selection != tok.Selection {
		t.Fatal("page granularity changed non-transfer terms")
	}

	// An exact page multiple charges identically under both granularities.
	exact := ClusterKVCounts{Budget: 1024, Clusters: 400, MissRate: 0.5, PageTokens: 64}
	exactTok := exact
	exactTok.PageTokens = 0
	a := hw.DecodeStepClusterKV(m, exact).Transfer
	b := hw.DecodeStepClusterKV(m, exactTok).Transfer
	if a != b {
		t.Fatalf("512 missed tokens: paged %.6g vs token %.6g", a, b)
	}
}
