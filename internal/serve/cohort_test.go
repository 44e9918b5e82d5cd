package serve

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/obs"
)

// The engine has one decode executor: every prefilled task steps in the
// round's cohort, a lone stream as a cohort of one. These tests drive rounds
// in which one stream decodes while other requests prefill beside it, which a
// nested-prefix chain arranges deterministically: chainRequests(k) returns k
// one-token requests, request i sharing the first i pages of one document, so
// each waits at the head of the queue for the round its predecessor builds in
// and prefills (and retires) in the next — exactly one prefill per round.
func chainRequests(k int) []Request {
	const page = kvcache.DefaultPageTokens
	doc := testDoc(5, page*k)
	reqs := make([]Request, k)
	for i := range reqs {
		n := page * (i + 1)
		reqs[i] = Request{
			Prompt:          append(append([]int{}, doc[:n]...), testDoc(uint64(200+i), 8)...),
			SharedPrefixLen: n,
			MaxNewTokens:    1,
		}
	}
	return reqs
}

// TestBatchDecodeLoneStreamIsCohortOfOne: a stream that decodes alone for
// four rounds while the chain prefills beside it, then beside a second stream
// for three, then alone again, emits its serial tokens; the lone rounds count
// as solo streams and nothing about them says "batched".
func TestBatchDecodeLoneStreamIsCohortOfOne(t *testing.T) {
	m := testModel()
	lone := Request{Prompt: testDoc(21, 100), MaxNewTokens: 12, Budget: 64, NewSelector: clusterSel}
	reqs := append([]Request{lone}, chainRequests(5)...)
	second := &reqs[len(reqs)-1] // the chain's last link stays to decode beside it
	second.MaxNewTokens = 4

	tracer := obs.NewTracer(0)
	e := NewEngine(m, Config{Workers: 2, MaxBatch: 8, Seed: 1, Trace: tracer.Recorder(0)})
	resps := e.Run(reqs)
	mx := e.Metrics()
	e.Close()

	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	for _, i := range []int{0, len(reqs) - 1} {
		if want := serialDecode(t, m, reqs[i]); !slices.Equal(resps[i].Tokens, want) {
			t.Fatalf("request %d: tokens %v, serial decode %v", i, resps[i].Tokens, want)
		}
	}
	// Round 1 prefills the lone stream and the chain's head; rounds 2–5 are
	// the lone stream beside one prefill each; rounds 6–8 are the pair; the
	// lone stream's last four tokens are rounds 9–12.
	join := resps[len(reqs)-1].AdmitRound
	if join != 5 || resps[0].DoneRound != 12 {
		t.Fatalf("second stream admitted in round %d, lone stream done in round %d; want 5 and 12", join, resps[0].DoneRound)
	}
	if mx.DecodeStreamsSolo != 8 || mx.BatchRounds != 3 || mx.DecodeStreamsBatched != 6 {
		t.Fatalf("solo %d, batched rounds %d, batched streams %d; want 8, 3, 6",
			mx.DecodeStreamsSolo, mx.BatchRounds, mx.DecodeStreamsBatched)
	}
	var batchRounds int64
	for _, ev := range tracer.Events() {
		if ev.Type != obs.EvBatchRound {
			continue
		}
		batchRounds++
		if ev.N < 2 || ev.Round <= join {
			t.Fatalf("EvBatchRound in round %d with cohort %d; the second stream joins after round %d", ev.Round, ev.N, join)
		}
	}
	if batchRounds != mx.BatchRounds {
		t.Fatalf("trace has %d EvBatchRound, metrics %d batched rounds", batchRounds, mx.BatchRounds)
	}
	// One cohort step per stream per cohort round — first tokens ride their
	// prefill rounds and count in neither.
	if n := mx.DecodeStreamsBatched + mx.DecodeStreamsSolo; n != 11+3 {
		t.Fatalf("%d cohort steps, want the lone stream's 11 cohort rounds + the second's 3", n)
	}
}

// selectBomb is full attention whose Select panics from the given call on.
type selectBomb struct {
	attention.Selector
	calls, fuse int
}

func (s *selectBomb) Select(layer, head int, q []float32, st *kvcache.Store, budget int) []int {
	if s.calls++; s.calls > s.fuse {
		panic("select exploded")
	}
	return s.Selector.Select(layer, head, q, st, budget)
}

// TestBatchDecodeLoneStreamPanicIsolated: a selector that panics while its
// stream decodes as a cohort of one fails that request as the engine's fault,
// and the prefill sharing the round completes.
func TestBatchDecodeLoneStreamPanicIsolated(t *testing.T) {
	m := testModel()
	mc := m.Config()
	firstToken := mc.NLayers * mc.NHeads // Select calls of the token that rides the prefill round
	bad := Request{Prompt: testDoc(22, 100), MaxNewTokens: 6, NewSelector: func() attention.Selector {
		return &selectBomb{Selector: baselines.NewFullKV(), fuse: firstToken}
	}}
	chain := chainRequests(2)
	chain[1].MaxNewTokens = 3
	e := NewEngine(m, Config{Workers: 2, MaxBatch: 8, Seed: 1})
	resps := e.Run(append([]Request{bad}, chain...))
	e.Close()

	if !errors.Is(resps[0].Err, ErrInternal) || !strings.Contains(resps[0].Err.Error(), "select exploded") {
		t.Fatalf("panicking stream err = %v, want ErrInternal naming the panic", resps[0].Err)
	}
	if resps[0].DoneRound != 2 || len(resps[0].Tokens) != 1 {
		t.Fatalf("panicking stream retired in round %d with %d tokens; want round 2 (its first cohort round) with the first token",
			resps[0].DoneRound, len(resps[0].Tokens))
	}
	// chain[1] waited out round 1 behind its ancestor's build and prefilled in
	// round 2, beside the failing cohort of one.
	if resps[2].Err != nil || resps[2].AdmitRound != 2 {
		t.Fatalf("prefill beside the panic: err %v, admitted in round %d (want nil, 2)", resps[2].Err, resps[2].AdmitRound)
	}
	if want := serialDecode(t, m, chain[1]); !slices.Equal(resps[2].Tokens, want) {
		t.Fatalf("prefill beside the panic: tokens %v, serial decode %v", resps[2].Tokens, want)
	}
	if live := e.Arena().LivePages(); live != 0 {
		t.Fatalf("after Close: %d live arena pages", live)
	}
}

// pinPages holds pages on e's arena, outside every request, until the
// returned store is freed: as many whole pages as fit in the device budget
// beside what the engine already holds, leaving at least slack raw slots.
func pinPages(e *Engine, slack int64) *kvcache.Store {
	P := int64(e.Arena().PageTokens())
	st := kvcache.NewStoreIn(e.Arena(), 1)
	for range (e.kvCap - e.pageSlots() - slack) / P * P {
		st.Append([]float32{0}, []float32{0})
	}
	return st
}

// TestStalledAdmissionFailsTyped: a head request that cannot be admitted
// while nothing is active — here because pages held on Arena() from outside
// the engine pin the budget — waits on a retirement that cannot come. The
// scheduler fails it as an internal fault with the state in the error, and
// carries on.
func TestStalledAdmissionFailsTyped(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, KVBudget: 256, Seed: 1})
	pin := pinPages(e, 8)
	req := Request{Prompt: testDoc(23, 64), MaxNewTokens: 4}

	stalled := make(chan Response, 1)
	go func() { stalled <- e.Submit(req).Wait() }()
	select {
	case resp := <-stalled:
		if !errors.Is(resp.Err, ErrInternal) || errors.Is(resp.Err, ErrBadRequest) {
			t.Fatalf("stalled head err = %v, want ErrInternal", resp.Err)
		}
		if !strings.Contains(resp.Err.Error(), "cost 69 slots, kv used 240 of 256") {
			t.Fatalf("stall error %q does not carry the per-head KV state", resp.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled head request never resolved: the scheduler is spinning")
	}
	if r := e.Metrics().Rounds; r != 0 {
		t.Fatalf("%d rounds counted for a request that never ran", r)
	}

	pin.Free()
	if resp := e.Submit(req).Wait(); resp.Err != nil || len(resp.Tokens) != req.MaxNewTokens {
		t.Fatalf("request after releasing the pin: err %v, %d tokens", resp.Err, len(resp.Tokens))
	}
	e.Close()
	if live := e.Arena().LivePages(); live != 0 {
		t.Fatalf("after Close: %d live arena pages", live)
	}
}
