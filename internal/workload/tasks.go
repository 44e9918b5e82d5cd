package workload

import (
	"fmt"

	"clusterkv/internal/rng"
)

// TaskSpec defines one LongBench-like synthetic task (DESIGN.md §1). Each
// task plants NumNeedles needle groups — scattered important tokens of a
// dedicated topic — inside the context, and schedules decode-step queries
// that move across the needles according to the task's hop pattern. The
// scatter mimics the paper's Fig. 3b observation that important tokens are
// spread 1–2 per 16-token page.
type TaskSpec struct {
	// Name is the LongBench dataset the task mirrors.
	Name string
	// BaseScore calibrates the Full-KV score to the paper's reported scale
	// for that dataset (see EXPERIMENTS.md); method differences come from
	// measured retrieval fidelity, not from this constant.
	BaseScore float64
	// CtxLen is the context length in tokens.
	CtxLen int
	// NumNeedles is the number of needle groups (hops).
	NumNeedles int
	// NeedleTokens is the number of important tokens per needle group.
	NeedleTokens int
	// SpreadRegion is the span (in tokens) over which one needle group's
	// tokens are scattered.
	SpreadRegion int
	// AnswerSteps is the number of decode steps.
	AnswerSteps int
	// HopPattern chooses how queries traverse needles: "sequential" (one
	// needle per phase — multi-hop QA), "interleave" (alternating),
	// "revisit" (returns to earlier needles — exercises recall), "sweep"
	// (queries slide across the whole document — summarization), "diffuse"
	// (broad attention with weak needle pull).
	HopPattern string
	// DiffuseNoise is the query noise level (higher = broader attention).
	DiffuseNoise float32
	// QueryGain scales the structured query component.
	QueryGain float32
}

// LongBenchTasks returns the eight task specs mirroring the paper's §V-A
// dataset list. Context lengths follow the datasets' typical scale, capped
// by maxCtx (the harness shrinks them for quick runs).
func LongBenchTasks(maxCtx int) []TaskSpec {
	clamp := func(l int) int {
		if l > maxCtx {
			return maxCtx
		}
		return l
	}
	return []TaskSpec{
		{Name: "2WikiMQA", BaseScore: 48.5, CtxLen: clamp(8192), NumNeedles: 2, NeedleTokens: 24, SpreadRegion: 512, AnswerSteps: 24, HopPattern: "revisit", DiffuseNoise: 0.35, QueryGain: 1.0},
		{Name: "TriviaQA", BaseScore: 89.0, CtxLen: clamp(8192), NumNeedles: 1, NeedleTokens: 32, SpreadRegion: 384, AnswerSteps: 16, HopPattern: "sequential", DiffuseNoise: 0.25, QueryGain: 1.2},
		{Name: "HotpotQA", BaseScore: 57.0, CtxLen: clamp(8192), NumNeedles: 2, NeedleTokens: 24, SpreadRegion: 512, AnswerSteps: 24, HopPattern: "interleave", DiffuseNoise: 0.35, QueryGain: 1.0},
		{Name: "MultiFieldQA", BaseScore: 50.5, CtxLen: clamp(8192), NumNeedles: 3, NeedleTokens: 20, SpreadRegion: 448, AnswerSteps: 24, HopPattern: "sequential", DiffuseNoise: 0.35, QueryGain: 1.0},
		{Name: "MuSiQue", BaseScore: 31.0, CtxLen: clamp(16384), NumNeedles: 4, NeedleTokens: 16, SpreadRegion: 512, AnswerSteps: 32, HopPattern: "revisit", DiffuseNoise: 0.45, QueryGain: 0.9},
		{Name: "NarrativeQA", BaseScore: 25.5, CtxLen: clamp(32768), NumNeedles: 3, NeedleTokens: 20, SpreadRegion: 768, AnswerSteps: 32, HopPattern: "revisit", DiffuseNoise: 0.55, QueryGain: 0.85},
		{Name: "Qasper", BaseScore: 41.0, CtxLen: clamp(8192), NumNeedles: 2, NeedleTokens: 20, SpreadRegion: 512, AnswerSteps: 24, HopPattern: "diffuse", DiffuseNoise: 0.5, QueryGain: 0.9},
		{Name: "GovReport", BaseScore: 31.0, CtxLen: clamp(16384), NumNeedles: 6, NeedleTokens: 24, SpreadRegion: 1024, AnswerSteps: 40, HopPattern: "sweep", DiffuseNoise: 0.5, QueryGain: 0.9},
	}
}

// Task is a materialised task instance: a trace plus needle bookkeeping.
type Task struct {
	Spec TaskSpec
	// Trace holds the context and the scheduled decode steps.
	Trace *Trace
	// NeedlePositions[i] lists the context positions of needle group i.
	NeedlePositions [][]int
	// NeedleTopic[i] is the dedicated topic of needle group i.
	NeedleTopic []int
}

// BuildTask generates a deterministic instance of the spec.
func BuildTask(spec TaskSpec, seed uint64) *Task {
	tc := DefaultTraceConfig()
	tc.L = spec.CtxLen
	tc.Seed = seed
	tr := NewTrace(tc)
	task := &Task{Spec: spec, Trace: tr}

	rnd := rng.New(seed ^ 0xbeefcafe)

	// Plant needles: reserve the last NumNeedles topics as needle topics so
	// background segments (drawn from all NTopics) rarely collide; rewrite
	// scattered positions within each needle's region to the needle topic.
	for i := 0; i < spec.NumNeedles; i++ {
		topic := tc.NTopics - 1 - i
		if topic < 0 {
			panic(fmt.Sprintf("workload: task %s needs more topics", spec.Name))
		}
		region := spec.SpreadRegion
		if region > spec.CtxLen-tc.SinkTokens {
			region = spec.CtxLen - tc.SinkTokens
		}
		maxStart := spec.CtxLen - region
		minStart := tc.SinkTokens
		start := minStart
		if maxStart > minStart {
			// Spread needle regions across the document deterministically
			// with jitter, so hops require long-range recall.
			span := (maxStart - minStart) / spec.NumNeedles
			start = minStart + i*span + rnd.Intn(max(1, span/2))
		}
		positions := make([]int, 0, spec.NeedleTokens)
		stride := max(1, region/spec.NeedleTokens)
		for j := 0; j < spec.NeedleTokens; j++ {
			p := start + j*stride + rnd.Intn(max(1, stride/2))
			if p >= spec.CtxLen {
				p = spec.CtxLen - 1
			}
			positions = append(positions, p)
			tr.TokenTopic[p] = topic
			// Regenerate the token's key/value under the needle topic.
			for h := 0; h < tc.Heads; h++ {
				hr := rng.New(seed ^ uint64(h*977+p))
				tr.genToken(h, hr, tr.Keys[h].Row(p), tr.Vals[h].Row(p), topic, p)
			}
		}
		task.NeedlePositions = append(task.NeedlePositions, positions)
		task.NeedleTopic = append(task.NeedleTopic, topic)
	}

	scheduleSteps(task, rnd)
	return task
}

// scheduleSteps adds spec.AnswerSteps decode steps to the trace following the
// hop pattern. Besides the primary needle topic, every query carries weaker
// pulls on a rotating set of secondary background topics — real attention
// retrieves semantically related content, and this is what makes the
// mid-ranked attention mass cluster-structured rather than white noise.
func scheduleSteps(task *Task, rnd *rng.RNG) {
	spec := task.Spec
	tr := task.Trace
	n := spec.NumNeedles

	// Task-fixed pool of secondary topics (background content the answer
	// keeps referring to).
	poolSize := 8
	pool := make([]int, poolSize)
	for i := range pool {
		pool[i] = rnd.Intn(tr.Cfg.NTopics - spec.NumNeedles)
	}

	for s := 0; s < spec.AnswerSteps; s++ {
		var hop int
		switch spec.HopPattern {
		case "sequential":
			hop = s * n / spec.AnswerSteps
		case "interleave":
			hop = s % n
		case "revisit":
			// Forward pass then revisit earlier needles (importance returns
			// — the recallability motivation of Fig. 3a).
			phase := s * (2*n - 1) / spec.AnswerSteps
			if phase < n {
				hop = phase
			} else {
				hop = 2*n - 2 - phase
			}
		case "sweep":
			hop = s * n / spec.AnswerSteps
		case "diffuse":
			hop = s % n
		default:
			panic("workload: unknown hop pattern " + spec.HopPattern)
		}
		mix := QueryMix{
			TopicWeights: map[int]float32{task.NeedleTopic[hop]: 1},
			Noise:        spec.DiffuseNoise * 0.3,
			Gain:         spec.QueryGain,
		}
		if spec.HopPattern == "diffuse" {
			// Weak pull on every needle plus strong noise.
			for i := 0; i < n; i++ {
				mix.TopicWeights[task.NeedleTopic[i]] = 0.5
			}
			mix.TopicWeights[task.NeedleTopic[hop]] = 1
		}
		// Rotating secondary topics with drifting weights: related background
		// content the answer keeps referring to, at clearly lower attention
		// strength than the needle (trained-model attention is peaked).
		for j := 0; j < 3; j++ {
			t := pool[(s+j*3)%len(pool)]
			if _, taken := mix.TopicWeights[t]; !taken {
				mix.TopicWeights[t] = 0.18 + float32(0.1*float32(j%2))
			}
		}
		genTopic := task.NeedleTopic[hop]
		tr.AddStep(mix, genTopic, task.NeedlePositions[hop], uint64(s)*7919+uint64(rnd.Intn(1<<20)))
	}
}
