package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/obs"
)

// TestTraceLifecycleGolden pins every deterministic way a request leaves the
// engine: a served cold build, an exact prefix hit, a partial radix reuse, a
// refusal (ErrTooLarge), a failed step (a panicking selector factory gives
// ErrInternal), a stalled head (pages pinned on Arena()) and an
// intake rejection — then a cold rebuild once the stall is cleared. Per
// ticket the golden holds the response's id, error, rounds, breakdown and
// modeled latencies, and the rounds of its admission, refusal, retirement and
// prefix events; every ticket resolves exactly once.
func TestTraceLifecycleGolden(t *testing.T) {
	want := []string{
		"ticket 1 id 1 err <nil> rounds 1-4 ttft 0.0440913022 tbt 0.0254509828 bd 1/1/4 dec 4 bat 2 phases 0 0 0.0241099297 0.0799254902 0.0164088308 0 ev prefix-miss@1 admit@1 retire@4",
		"ticket 2 id 2 err <nil> rounds 2-4 ttft 0.0804815055 tbt 0.0199813725 bd 1/2/4 dec 3 bat 2 phases 0 0.0440913022 0.00290257729 0.0599441176 0.0135062535 0 ev prefix-hit@2 admit@2 retire@4",
		"ticket 3 id 3 err <nil> rounds 2-3 ttft 0.0804815055 tbt 0.0199813725 bd 1/2/3 dec 2 bat 1 phases 0.0440913022 0 0.0135062535 0.0399627451 0.00290257729 0 ev prefix-miss@2 admit@2 retire@3",
		"ticket 4 id 4 err serve: request exceeds global KV budget rounds 0-2 ttft 0 tbt 0 bd 1/0/2 dec 0 bat 0 phases 0.0440913022 0 0 0 0 0 ev refuse@2 retire@2",
		"ticket 5 id 5 err serve: internal fault: factory exploded rounds 2-2 ttft 0.0804815055 tbt 0 bd 1/2/2 dec 1 bat 0 phases 0.0440913022 0 0 0.0199813725 0.0164088308 0 ev admit@2 retire@2",
		"ticket 6 id 6 err serve: invalid request rounds 0-0 ttft 0 tbt 0 ev ",
		"ticket 7 id 7 err serve: internal fault: admission stalled with nothing active: cost 259 slots, kv used 816 of 1024, 0 cached prefixes rounds 0-5 ttft 0 tbt 0 bd 5/0/5 dec 0 bat 0 phases 0 0 0 0 0 0 ev retire@5",
		"ticket 8 id 8 err <nil> rounds 5-6 ttft 0.0440913022 tbt 0.0199813725 bd 5/5/6 dec 2 bat 0 phases 0 0 0.0241099297 0.0399627451 0 0 ev prefix-miss@5 admit@5 retire@6",
	}
	m := testModel()
	doc := testDoc(41, 128)
	ask := func(prefix []int, seed uint64, maxNew int) Request {
		return Request{Prompt: append(append([]int{}, prefix...), testDoc(seed, 16)...),
			SharedPrefixLen: len(prefix), MaxNewTokens: maxNew}
	}
	nested := append(append([]int{}, doc...), testDoc(42, 64)...)
	boom := func() attention.Selector { panic("factory exploded") }

	tracer := obs.NewTracer(0)
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 4, KVBudget: 1024, Seed: 1, Trace: tracer.Recorder(0)})
	var tickets []*Ticket
	var ids []uint64 // the ticket id of each response: a fresh engine numbers Run's from 1
	var resps []Response
	for i, r := range e.Run([]Request{
		ask(doc, 43, 4),    // cold build
		ask(doc, 44, 3),    // exact hit, waits on the build
		ask(nested, 45, 2), // partial reuse of the cached document
		{Prompt: testDoc(46, 2000), MaxNewTokens: 4},                  // refused
		{Prompt: testDoc(47, 40), MaxNewTokens: 3, NewSelector: boom}, // failed step
		{Prompt: testDoc(48, 40), MaxNewTokens: 0},                    // rejected at intake
	}) {
		ids = append(ids, uint64(i+1))
		resps = append(resps, r)
	}
	// Pin all the budget but 8 slots; the cached prefixes hold the rest.
	pin := pinPages(e, 8)
	tk := e.Submit(Request{Prompt: testDoc(49, 256), MaxNewTokens: 2}) // stalled head
	tickets = append(tickets, tk)
	ids = append(ids, tk.ID)
	resps = append(resps, tk.Wait())
	pin.Free()
	tk = e.Submit(ask(doc, 50, 2)) // cold rebuild: the stall evicted the cache
	tickets = append(tickets, tk)
	ids = append(ids, tk.ID)
	resps = append(resps, tk.Wait())
	e.Close()

	if r := resps[2]; r.PrefixHit || r.PrefixReusedTokens != len(doc) {
		t.Fatalf("nested prefix: hit %v, %d tokens reused; want a partial reuse of %d", r.PrefixHit, r.PrefixReusedTokens, len(doc))
	}
	if mx := e.Metrics(); mx.Completed+mx.Failed != mx.Submitted || mx.Submitted != uint64(len(resps)) {
		t.Fatalf("%d completed + %d failed of %d submitted, want all %d resolved", mx.Completed, mx.Failed, mx.Submitted, len(resps))
	}
	for _, tk := range tickets {
		if n := len(tk.ch); n != 0 {
			t.Fatalf("ticket %d: %d responses left after the first", tk.ID, n)
		}
	}
	events := map[uint64][]string{}
	for _, ev := range tracer.Events() {
		switch ev.Type {
		case obs.EvAdmit, obs.EvRefuse, obs.EvRetire, obs.EvPrefixHit, obs.EvPrefixMiss:
			events[ev.Req] = append(events[ev.Req], fmt.Sprintf("%s@%d", ev.Type, ev.Round))
		}
	}
	var got []string
	for i, r := range resps {
		id := ids[i]
		retires := 1
		if errors.Is(r.Err, ErrBadRequest) {
			retires = 0 // resolved at intake, before the scheduler saw it
		}
		if n := strings.Count(strings.Join(events[id], " "), "retire@"); n != retires {
			t.Fatalf("ticket %d retired %d times in the trace, want %d", id, n, retires)
		}
		line := fmt.Sprintf("ticket %d id %d err %v rounds %d-%d ttft %.9g tbt %.9g", id, r.ID, r.Err, r.AdmitRound, r.DoneRound, r.ModelTTFT, r.ModelTBT)
		if b := r.Breakdown; b != nil {
			line += fmt.Sprintf(" bd %d/%d/%d dec %d bat %d phases", b.SeenRound, b.AdmitRound, b.DoneRound, b.DecodeRounds, b.BatchedRounds)
			for _, p := range b.Phases {
				line += fmt.Sprintf(" %.9g", p)
			}
		}
		line += " ev " + strings.Join(events[id], " ")
		got = append(got, line)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lifecycle changed:\n got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
