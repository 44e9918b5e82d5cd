package bench

import (
	"math"
	"testing"
	"testing/quick"

	"clusterkv/internal/memsim"
)

func TestPipelineNoSideJobs(t *testing.T) {
	res := pipelineOverlap([]pipeStage{{compute: 1}, {compute: 2}, {compute: 3}})
	if res.mainTotal != 6 || res.total != 6 || res.exposed != 0 || res.sideBusy != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestPipelineFullyHiddenSideJobs(t *testing.T) {
	// Tiny side jobs launched early are hidden entirely.
	stages := make([]pipeStage, 4)
	for i := range stages {
		stages[i] = pipeStage{compute: 10, sideJob: 0.5, readyFrac: 0.1}
	}
	res := pipelineOverlap(stages)
	if res.exposed != 0 {
		t.Fatalf("tiny side jobs exposed %v", res.exposed)
	}
	if res.sideBusy != 2 {
		t.Fatalf("sideBusy = %v", res.sideBusy)
	}
}

func TestPipelineEmptyStageList(t *testing.T) {
	for _, stages := range [][]pipeStage{nil, {}} {
		res := pipelineOverlap(stages)
		if res != (pipeResult{}) {
			t.Fatalf("empty pipeline: %+v", res)
		}
	}
}

func TestPipelineAllZeroSideJobs(t *testing.T) {
	// sideJob == 0 stages must not advance the side stream even when their
	// readyFrac is set, and zero-compute stages are tolerated.
	stages := []pipeStage{
		{compute: 2, sideJob: 0, readyFrac: 0.5},
		{compute: 0, sideJob: 0, readyFrac: 1},
		{compute: 3, sideJob: 0, readyFrac: 0},
	}
	res := pipelineOverlap(stages)
	if res.mainTotal != 5 || res.total != 5 || res.sideBusy != 0 || res.exposed != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestPipelineSideJobReadyAfterMainEnds(t *testing.T) {
	// The last stage's side job becomes ready exactly when the main stream
	// finishes (readyFrac = 1): it is fully exposed.
	stages := []pipeStage{
		{compute: 1},
		{compute: 2, sideJob: 4, readyFrac: 1},
	}
	res := pipelineOverlap(stages)
	if res.mainTotal != 3 {
		t.Fatalf("mainTotal = %v", res.mainTotal)
	}
	if math.Abs(res.total-7) > 1e-12 || math.Abs(res.exposed-4) > 1e-12 {
		t.Fatalf("fully exposed side job: %+v", res)
	}
	// A queued side job whose predecessor pushes its start past the main
	// stream's end is also fully serialised after it.
	stages = []pipeStage{
		{compute: 2, sideJob: 5, readyFrac: 0.5}, // side: [1, 6)
		{compute: 1, sideJob: 2, readyFrac: 0},   // ready at 2, starts at 6
	}
	res = pipelineOverlap(stages)
	if math.Abs(res.total-8) > 1e-12 || math.Abs(res.exposed-5) > 1e-12 {
		t.Fatalf("queued-past-main side job: %+v", res)
	}
}

func TestPipelineSideJobOutlastsMain(t *testing.T) {
	// One huge side job from the last stage extends the makespan.
	stages := []pipeStage{{compute: 1}, {compute: 1, sideJob: 10, readyFrac: 0.5}}
	res := pipelineOverlap(stages)
	// Side job starts at 1.5, runs 10 → finishes 11.5; main ends at 2.
	if math.Abs(res.total-11.5) > 1e-12 || math.Abs(res.exposed-9.5) > 1e-12 {
		t.Fatalf("%+v", res)
	}
}

func TestPipelineSideStreamSerialisation(t *testing.T) {
	// Two side jobs of 3s each, ready at t=0.5 and t=1.5: the second queues
	// behind the first (0.5+3=3.5 > 1.5), finishing at 6.5.
	stages := []pipeStage{
		{compute: 1, sideJob: 3, readyFrac: 0.5},
		{compute: 1, sideJob: 3, readyFrac: 0.5},
	}
	res := pipelineOverlap(stages)
	if math.Abs(res.total-6.5) > 1e-12 {
		t.Fatalf("total = %v, want 6.5", res.total)
	}
}

func TestPipelineReadyFracDelaysStart(t *testing.T) {
	early := pipelineOverlap([]pipeStage{{compute: 10, sideJob: 20, readyFrac: 0}})
	late := pipelineOverlap([]pipeStage{{compute: 10, sideJob: 20, readyFrac: 1}})
	if late.total-early.total != 10 {
		t.Fatalf("readyFrac shift wrong: %v vs %v", early.total, late.total)
	}
}

func TestPipelineOverlapInvariantsProperty(t *testing.T) {
	check := func(seeds []uint8) bool {
		var stages []pipeStage
		for i := 0; i+2 < len(seeds); i += 3 {
			stages = append(stages, pipeStage{
				compute:   float64(seeds[i])/16 + 0.01,
				sideJob:   float64(seeds[i+1]) / 32,
				readyFrac: float64(seeds[i+2]%100) / 100,
			})
		}
		res := pipelineOverlap(stages)
		// total >= mainTotal; total >= sideBusy; exposed = total - mainTotal >= 0.
		return res.total >= res.mainTotal-1e-12 &&
			res.total >= res.sideBusy-1e-12 &&
			res.exposed >= -1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestClusterPrefillExposureBypass: the first bypass layers spawn no
// clustering job and every later layer spawns the same one, on a pipeline of
// equal layers that tile the modeled prefill.
func TestClusterPrefillExposureBypass(t *testing.T) {
	hw, m := memsim.AdaRTX6000(), memsim.Llama31_8B()
	const p, iters = 8192, 10.0
	c0 := p / 80
	clusterTime := hw.ClusterWork(int64(iters * float64(p) * float64(c0) * float64(m.HeadDim) * float64(m.NKVHeads)))
	for _, bypass := range []int{0, 2, m.NLayers} {
		exposed, busy, prefill := clusterPrefillExposure(hw, m, p, iters, bypass)
		if prefill != hw.Prefill(m, p).Total {
			t.Fatalf("bypass %d: prefill %v, want %v", bypass, prefill, hw.Prefill(m, p).Total)
		}
		if want := float64(m.NLayers-bypass) * clusterTime; math.Abs(busy-want) > 1e-9*want {
			t.Fatalf("bypass %d: cluster busy %v, want %v", bypass, busy, want)
		}
		if exposed < 0 || (bypass == m.NLayers && exposed != 0) {
			t.Fatalf("bypass %d: exposed %v", bypass, exposed)
		}
	}
}
