package workload

import (
	"math"
	"testing"

	"clusterkv/internal/tensor"
)

func TestDocProperties(t *testing.T) {
	cfg := DefaultDocConfig()
	doc := Doc(cfg, 5000)
	if len(doc) != 5000 {
		t.Fatalf("doc length %d", len(doc))
	}
	for _, tok := range doc {
		if tok < 0 || tok >= cfg.VocabSize {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
	// Topic coherence: adjacent tokens share a topic far more often than
	// chance (1/NTopics + global rate effects).
	same := 0
	for i := 1; i < len(doc); i++ {
		if doc[i]%cfg.NTopics == doc[i-1]%cfg.NTopics {
			same++
		}
	}
	if frac := float64(same) / float64(len(doc)-1); frac < 0.4 {
		t.Fatalf("topic coherence %.2f too low", frac)
	}
}

func TestDocDeterminism(t *testing.T) {
	cfg := DefaultDocConfig()
	a := Doc(cfg, 1000)
	b := Doc(cfg, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Doc not deterministic")
		}
	}
}

func TestPG19StreamTopicsConsistent(t *testing.T) {
	cfg := DefaultDocConfig()
	tokens, topics := PG19StreamTopics(cfg, 2000)
	if len(tokens) != 2000 || len(topics) != 2000 {
		t.Fatalf("lengths %d/%d", len(tokens), len(topics))
	}
	for i := range tokens {
		if topics[i] != tokens[i]%cfg.NTopics {
			t.Fatalf("topic label inconsistent at %d", i)
		}
	}
}

func TestNewTraceShapes(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.L = 512
	tr := NewTrace(cfg)
	if len(tr.Keys) != cfg.Heads || len(tr.Vals) != cfg.Heads {
		t.Fatal("per-head tensors missing")
	}
	for h := 0; h < cfg.Heads; h++ {
		if tr.Keys[h].Rows != 512 || tr.Keys[h].Cols != cfg.D {
			t.Fatalf("head %d keys shape %dx%d", h, tr.Keys[h].Rows, tr.Keys[h].Cols)
		}
	}
	if len(tr.TokenTopic) != 512 {
		t.Fatal("TokenTopic length")
	}
	for p := 0; p < cfg.SinkTokens; p++ {
		if tr.TokenTopic[p] != -1 {
			t.Fatalf("sink %d has topic %d", p, tr.TokenTopic[p])
		}
	}
}

func TestTraceTopicClusterStructure(t *testing.T) {
	// Same-topic keys must be more similar (cosine) than cross-topic keys.
	cfg := DefaultTraceConfig()
	cfg.L = 2048
	tr := NewTrace(cfg)
	var same, cross float64
	var nSame, nCross int
	for i := 100; i < 1000; i += 7 {
		for j := i + 1; j < 1000; j += 97 {
			sim := float64(tensor.CosineSim(tr.Keys[0].Row(i), tr.Keys[0].Row(j)))
			if tr.TokenTopic[i] == tr.TokenTopic[j] {
				same += sim
				nSame++
			} else {
				cross += sim
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skip("degenerate sampling")
	}
	if same/float64(nSame) <= cross/float64(nCross)+0.05 {
		t.Fatalf("no cluster structure: same=%.3f cross=%.3f", same/float64(nSame), cross/float64(nCross))
	}
}

func TestPlanSeedChangesDocumentNotDirections(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.L = 256
	a := NewTrace(cfg)
	cfg.PlanSeed = cfg.Seed ^ 0xca11b
	b := NewTrace(cfg)
	// Same head-level structure: topic directions identical.
	for tp := 0; tp < cfg.NTopics; tp++ {
		for j := 0; j < cfg.D; j++ {
			if a.topicDirs[0].At(tp, j) != b.topicDirs[0].At(tp, j) {
				t.Fatal("PlanSeed changed topic directions")
			}
		}
	}
	// Different document: token topics differ somewhere.
	diff := false
	for p := range a.TokenTopic {
		if a.TokenTopic[p] != b.TokenTopic[p] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("PlanSeed did not change the document plan")
	}
}

func TestAddStepAndLen(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.L = 128
	tr := NewTrace(cfg)
	tr.AddStep(QueryMix{TopicWeights: map[int]float32{1: 1}, Gain: 1, Noise: 0.1}, 1, []int{5, 6}, 0)
	if tr.Len() != 129 || len(tr.Steps) != 1 {
		t.Fatalf("Len=%d steps=%d", tr.Len(), len(tr.Steps))
	}
	st := tr.Steps[0]
	if len(st.Queries) != cfg.Heads || len(st.AppendK) != cfg.Heads {
		t.Fatal("step missing per-head data")
	}
	if len(st.Relevant) != 2 {
		t.Fatal("relevant set lost")
	}
}

func TestQueryTargetsItsTopic(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.L = 1024
	tr := NewTrace(cfg)
	topic := 3
	tr.AddStep(QueryMix{TopicWeights: map[int]float32{topic: 1}, Gain: 1, Noise: 0.1}, topic, nil, 1)
	q := tr.Steps[0].Queries[0]
	var onTopic, offTopic float64
	var nOn, nOff int
	for p := cfg.SinkTokens; p < 1024; p++ {
		dot := float64(tensor.Dot(q, tr.Keys[0].Row(p)))
		if tr.TokenTopic[p] == topic {
			onTopic += dot
			nOn++
		} else {
			offTopic += dot
			nOff++
		}
	}
	if nOn == 0 {
		t.Skip("topic absent from plan")
	}
	if onTopic/float64(nOn) <= offTopic/float64(nOff) {
		t.Fatal("query does not prefer its topic's keys")
	}
}

func TestLongBenchTasksSpecs(t *testing.T) {
	tasks := LongBenchTasks(32768)
	if len(tasks) != 8 {
		t.Fatalf("%d tasks, want 8", len(tasks))
	}
	names := map[string]bool{}
	for _, spec := range tasks {
		if names[spec.Name] {
			t.Fatalf("duplicate task %s", spec.Name)
		}
		names[spec.Name] = true
		if spec.CtxLen > 32768 || spec.CtxLen <= 0 {
			t.Fatalf("%s ctx %d", spec.Name, spec.CtxLen)
		}
	}
	capped := LongBenchTasks(4096)
	for _, spec := range capped {
		if spec.CtxLen > 4096 {
			t.Fatalf("%s not capped: %d", spec.Name, spec.CtxLen)
		}
	}
}

func TestBuildTaskNeedles(t *testing.T) {
	spec := LongBenchTasks(4096)[0]
	task := BuildTask(spec, 5)
	if len(task.NeedlePositions) != spec.NumNeedles {
		t.Fatalf("%d needle groups", len(task.NeedlePositions))
	}
	for i, pos := range task.NeedlePositions {
		if len(pos) != spec.NeedleTokens {
			t.Fatalf("needle %d has %d tokens", i, len(pos))
		}
		topic := task.NeedleTopic[i]
		for _, p := range pos {
			if p < 0 || p >= spec.CtxLen {
				t.Fatalf("needle position %d out of range", p)
			}
			if task.Trace.TokenTopic[p] != topic {
				t.Fatalf("needle token %d not retagged to topic %d", p, topic)
			}
		}
	}
	if len(task.Trace.Steps) != spec.AnswerSteps {
		t.Fatalf("%d steps, want %d", len(task.Trace.Steps), spec.AnswerSteps)
	}
}

// TestBuildTaskDeterminism: two builds of one task in one process agree bit
// for bit — the prefill keys, and every decode step's queries, which sum
// several topic directions in float32 (map order used to pick the order of
// that sum, and InfiniGen seeds its noise from the query bits).
func TestBuildTaskDeterminism(t *testing.T) {
	for _, spec := range LongBenchTasks(2048) {
		a := BuildTask(spec, 9)
		b := BuildTask(spec, 9)
		for h := range a.Trace.Keys {
			for i := range a.Trace.Keys[h].Data {
				if a.Trace.Keys[h].Data[i] != b.Trace.Keys[h].Data[i] {
					t.Fatalf("%s: BuildTask keys not deterministic", spec.Name)
				}
			}
		}
		for s := range a.Trace.Steps {
			for h, q := range a.Trace.Steps[s].Queries {
				for j := range q {
					if math.Float32bits(q[j]) != math.Float32bits(b.Trace.Steps[s].Queries[h][j]) {
						t.Fatalf("%s: step %d head %d query channel %d differs between two builds", spec.Name, s, h, j)
					}
				}
			}
		}
	}
}

func TestHopPatternsCoverNeedles(t *testing.T) {
	for _, pattern := range []string{"sequential", "interleave", "revisit", "sweep", "diffuse"} {
		spec := TaskSpec{
			Name: pattern, BaseScore: 1, CtxLen: 1024, NumNeedles: 3,
			NeedleTokens: 8, SpreadRegion: 128, AnswerSteps: 12,
			HopPattern: pattern, DiffuseNoise: 0.3, QueryGain: 1,
		}
		task := BuildTask(spec, 11)
		touched := map[string]bool{}
		for _, st := range task.Trace.Steps {
			if len(st.Relevant) > 0 {
				touched[ikey(st.Relevant)] = true
			}
		}
		if len(touched) < 2 {
			t.Fatalf("pattern %s touched %d distinct needle sets", pattern, len(touched))
		}
	}
}

func ikey(xs []int) string {
	b := make([]byte, 0, len(xs))
	for _, x := range xs {
		b = append(b, byte(x%251))
	}
	return string(b)
}

func TestUnknownHopPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BuildTask(TaskSpec{Name: "x", CtxLen: 256, NumNeedles: 1, NeedleTokens: 4,
		SpreadRegion: 64, AnswerSteps: 2, HopPattern: "bogus"}, 1)
}

func TestRetrievalLMStream(t *testing.T) {
	doc := DefaultDocConfig()
	tc := DefaultTraceConfig()
	tc.Heads = 2
	lm := NewRetrievalLM(doc, tc, 800, 256, 10)
	if len(lm.Tokens) != 801 {
		t.Fatalf("stream length %d, want 801", len(lm.Tokens))
	}
	for i, tok := range lm.Tokens {
		if tok < 0 || tok >= doc.VocabSize {
			t.Fatalf("token %d out of vocab at %d", tok, i)
		}
		if lm.Topics[i] != tok%doc.NTopics && i >= lm.Warmup {
			t.Fatalf("generated topic inconsistent at %d", i)
		}
	}
}

func TestRetrievalLMDeterministicKV(t *testing.T) {
	doc := DefaultDocConfig()
	tc := DefaultTraceConfig()
	tc.Heads = 2
	lm := NewRetrievalLM(doc, tc, 400, 128, 10)
	k1, v1 := lm.KV(0, 50)
	k2, v2 := lm.KV(0, 50)
	for j := range k1 {
		if k1[j] != k2[j] || v1[j] != v2[j] {
			t.Fatal("KV not deterministic")
		}
	}
}

func TestRetrievalLMLogitsFinite(t *testing.T) {
	doc := DefaultDocConfig()
	tc := DefaultTraceConfig()
	tc.Heads = 2
	lm := NewRetrievalLM(doc, tc, 300, 128, 10)
	outs := [][]float32{make([]float32, tc.D), make([]float32, tc.D)}
	outs[0][0] = 1
	logits := lm.Logits(outs)
	if len(logits) != doc.VocabSize {
		t.Fatalf("logits length %d", len(logits))
	}
	for _, v := range logits {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite logit")
		}
	}
}
