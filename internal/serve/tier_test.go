package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"clusterkv/internal/memsim"
	"clusterkv/internal/metrics"
	"clusterkv/internal/obs"
)

// tierLoad builds a shared-document QA load whose prefill alone dwarfs the
// tight device budget used by the tests below.
func tierLoad() []Request {
	return qaRequests(6, 256, 16, 8, clusterSel)
}

// TestEngineServesBeyondDeviceBudget is the acceptance lock for two-tier
// admission: a load whose KV footprint exceeds the device budget (the
// builder's prefill alone cannot fit) was refused outright before the host
// tier existed, and is served completely with one — with identical tokens to
// an unconstrained engine, and with round-barrier device residency held at
// or under the device budget by cold spills.
func TestEngineServesBeyondDeviceBudget(t *testing.T) {
	const devBudget = 128 // per-head slots; the 256-token shared doc can never fit
	reqs := tierLoad()
	m := testModel()

	// Reference: unconstrained engine (tokens to match).
	ref := NewEngine(m, Config{Workers: 2, MaxBatch: 3, Seed: 9})
	want := ref.Run(reqs)
	ref.Close()
	for i, r := range want {
		if r.Err != nil {
			t.Fatalf("reference request %d failed: %v", i, r.Err)
		}
	}

	// Single-tier at the tight budget: the prefix builder's admission need
	// exceeds the whole device budget — impossible to serve.
	single := NewEngine(m, Config{Workers: 2, MaxBatch: 3, KVBudget: devBudget, Seed: 9})
	refused := 0
	for _, r := range single.Run(reqs) {
		if errors.Is(r.Err, ErrTooLarge) {
			refused++
		}
	}
	single.Close()
	if refused == 0 {
		t.Fatal("single-tier engine at the tight device budget refused nothing; the two-tier scenario is not actually beyond-device")
	}

	// Two-tier: same device budget plus a host tier serves everything.
	eng := NewEngine(m, Config{Workers: 2, MaxBatch: 3, KVBudget: devBudget, HostBudget: 8192, Seed: 9})
	got := eng.Run(reqs)
	eng.Close()
	mx := eng.Metrics()
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("two-tier request %d failed: %v", i, r.Err)
		}
		if len(r.Tokens) != len(want[i].Tokens) {
			t.Fatalf("request %d: %d tokens vs %d unconstrained", i, len(r.Tokens), len(want[i].Tokens))
		}
		for j := range r.Tokens {
			if r.Tokens[j] != want[i].Tokens[j] {
				t.Fatalf("request %d token %d: %d vs unconstrained %d", i, j, r.Tokens[j], want[i].Tokens[j])
			}
		}
	}
	if mx.Completed != uint64(len(reqs)) || mx.Failed != 0 {
		t.Fatalf("two-tier run: %d completed, %d failed", mx.Completed, mx.Failed)
	}
	if mx.KVPeak <= devBudget {
		t.Fatalf("total KV peak %d does not exceed the device budget %d; load too small to prove spilling", mx.KVPeak, devBudget)
	}
	if mx.KVDevicePeak > devBudget {
		t.Fatalf("device peak %d exceeds the device budget %d despite spilling", mx.KVDevicePeak, devBudget)
	}
	if mx.KVSpilled == 0 || mx.KVHostPeak == 0 {
		t.Fatalf("no spilling recorded (spilled=%d, host peak=%d) while footprint exceeded device", mx.KVSpilled, mx.KVHostPeak)
	}
	if mx.KVHostPeak > mx.KVHostCapacity {
		t.Fatalf("host peak %d exceeds host capacity %d", mx.KVHostPeak, mx.KVHostCapacity)
	}
}

// TestEngineTwoTierStillRefusesBeyondTotal: a request larger than device +
// host combined is still refused — the host tier extends capacity, it does
// not remove admission control.
func TestEngineTwoTierStillRefusesBeyondTotal(t *testing.T) {
	m := testModel()
	eng := NewEngine(m, Config{Workers: 1, MaxBatch: 2, KVBudget: 16, HostBudget: 16, Seed: 1})
	defer eng.Close()
	resp := eng.Submit(Request{
		Prompt:       testDoc(11, 512),
		MaxNewTokens: 4,
	}).Wait()
	if !errors.Is(resp.Err, ErrTooLarge) {
		t.Fatalf("512-token full-attention prompt on a 32-slot total budget: err=%v, want ErrTooLarge", resp.Err)
	}
}

// TestEngineTransferTelemetry: a ClusterKV load on the engine's transfer
// runtime records channel activity and layer-ahead prefetch traffic in Metrics.
func TestEngineTransferTelemetry(t *testing.T) {
	m := testModel()
	eng := NewEngine(m, Config{Workers: 2, MaxBatch: 3, Seed: 5})
	resps := eng.Run(qaRequests(4, 192, 16, 8, clusterSel))
	eng.Close()
	mx := eng.Metrics()
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	tr := mx.Transfer
	if tr.Transfers == 0 || tr.Pages == 0 || tr.BusySec <= 0 {
		t.Fatalf("no transfer activity recorded: %+v", tr)
	}
	if tr.PrefetchedPages == 0 {
		t.Fatalf("no layer-ahead prefetch recorded: %+v", tr)
	}
	if tr.ExposedSec > tr.BusySec+1e-9 {
		t.Fatalf("exposed %.6fs exceeds busy %.6fs", tr.ExposedSec, tr.BusySec)
	}
}

// TestTransferTelemetryDeterministic: the transfer telemetry is a function of
// the load, not of the schedule. A multi-stream two-tier load — first tokens
// riding fanned-out prefill rounds, batched cohorts selecting concurrently,
// spills at the barriers — on a link slow enough that layer windows overflow
// gives the same Metrics().Transfer every run, ExposedSec included.
func TestTransferTelemetryDeterministic(t *testing.T) {
	reqs := loadRequests(t)
	slow := memsim.AdaRTX6000()
	slow.PCIeBandwidth /= 100 // five pages fill one layer window
	run := func() metrics.Overlap {
		eng := newEngine(testModel(), Config{
			Workers: 2, MaxBatch: 4, Seed: 7,
			KVBudget: 512, HostBudget: 4096,
		}, func(pageTokens int) memsim.LatencyModel {
			return memsim.NewLatencyModel(slow, memsim.Llama31_8B(), pageTokens)
		})
		for i, r := range eng.Run(reqs) {
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
		}
		eng.Close()
		mx := eng.Metrics()
		if mx.KVSpilled == 0 {
			t.Fatal("the load must spill: tighten KVBudget")
		}
		return mx.Transfer
	}
	want := run()
	if want.PrefetchedPages == 0 || want.ExposedSec == 0 {
		t.Fatalf("load exercised no prefetch or no exposure: %+v", want)
	}
	if want.HiddenSec() == 0 {
		t.Fatalf("nothing hidden: every window overflowed, slow the link less: %+v", want)
	}
	t.Logf("transfer telemetry: %+v", want)
	for i := 0; i < 3; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: transfer telemetry %+v, want %+v", i+2, got, want)
		}
	}
}

// TestTieringWalkGolden pins the two-tier pass on a load that drives every
// claim it keeps: two cached prefixes go idle (the second one's build already
// spills the first), a full-attention stream and a budgeted ClusterKV stream
// push the device over budget so both idle prefixes and the ClusterKV
// stream's cold pages spill, the full-attention stream's retirement opens
// headroom whose promote unwinds the task claim and then the newer prefix's
// host claim, and the ClusterKV stream's growth spills that prefix again.
// The per-round spill/promote/round-end stream and the prefixes' final host
// claims are golden.
func TestTieringWalkGolden(t *testing.T) {
	const want = "1-2 end 192/0 | 3 spill 64 | 3-4 end 256/64 | 5 spill 256 | 5-8 end 256/320 | " +
		"9 promote 128 | 9-46 end 256/192 | 47 spill 64 | 47-54 end 256/256 | claims doc1 128 doc2 128"
	m := testModel()
	doc1, doc2 := testDoc(31, 128), testDoc(35, 128)
	ask := func(doc []int, seed uint64) Request {
		return Request{Prompt: append(append([]int{}, doc...), testDoc(seed, 16)...), SharedPrefixLen: len(doc), MaxNewTokens: 2}
	}
	full := Request{Prompt: testDoc(33, 100), MaxNewTokens: 4}
	budgeted := Request{Prompt: testDoc(34, 150), MaxNewTokens: 50, Budget: 16, NewSelector: clusterSel}

	tracer := obs.NewTracer(0)
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 2, KVBudget: 256, HostBudget: 4096, Seed: 1, Trace: tracer.Recorder(0)})
	defer e.Close()
	for _, load := range [][]Request{{ask(doc1, 32)}, {ask(doc2, 36)}, {full, budgeted}} {
		for i, r := range e.Run(load) {
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
		}
	}

	// Consecutive round ends with equal tier gauges fold into one range.
	var parts []string
	var from, last int64
	var gauges string
	flush := func() {
		if gauges != "" {
			parts = append(parts, fmt.Sprintf("%d-%d end %s", from, last, gauges))
			gauges = ""
		}
	}
	for _, ev := range tracer.Events() {
		switch ev.Type {
		case obs.EvPageSpill, obs.EvPagePromote:
			flush()
			parts = append(parts, fmt.Sprintf("%d %s %d", ev.Round, strings.TrimPrefix(ev.Type.String(), "page-"), ev.N))
		case obs.EvRoundEnd:
			if g := fmt.Sprintf("%d/%d", ev.N, ev.Aux); g != gauges {
				flush()
				from, gauges = ev.Round, g
			}
			last = ev.Round
		}
	}
	flush()
	// The engine is idle: the last spill pass ran before the last response
	// was delivered, so its claims are settled.
	claims := "claims"
	for i, doc := range [][]int{doc1, doc2} {
		for _, p := range e.cache.entries(nil) {
			if slices.Equal(p.tokens, doc) {
				claims += fmt.Sprintf(" doc%d %d", i+1, e.kvUnits(p.spilled))
			}
		}
	}
	if got := strings.Join(append(parts, claims), " | "); got != want {
		t.Fatalf("tiering stream changed:\n got %s\nwant %s", got, want)
	}
}

// TestTwoTierHostCountFollowsFootprint locks the host tier's bookkeeping on
// a live engine. A budgeted ClusterKV stream with a long prompt spills its
// cold pages host-ward, then retires while a short full-attention stream
// keeps decoding. At every round barrier the host count stays within the
// footprint and the host budget; after the retirement it shrinks, and no
// promote moves more slots device-ward than the footprint holds: the retired
// stream's host slots leave with its pages instead of being promoted as
// phantoms. Admission spans both tiers: a request costing more than the
// device budget but less than device + host is served, one costing more than
// both is refused.
func TestTwoTierHostCountFollowsFootprint(t *testing.T) {
	const devBudget, hostBudget = 128, 1024 // per-head slots
	m := testModel()
	tracer := obs.NewTracer(0)
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 2, KVBudget: devBudget, HostBudget: hostBudget, Seed: 1, Trace: tracer.Recorder(0)})
	defer e.Close()
	spilled := Request{Prompt: testDoc(61, 512), MaxNewTokens: 4, Budget: 16, NewSelector: clusterSel}
	decoding := Request{Prompt: testDoc(62, 16), MaxNewTokens: 40}
	for i, r := range e.Run([]Request{spilled, decoding}) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	mid := Request{Prompt: testDoc(63, 300), MaxNewTokens: 4}
	huge := Request{Prompt: testDoc(64, 2000), MaxNewTokens: 4}
	got := e.Run([]Request{mid, huge})
	if r := got[0]; r.Err != nil || r.KVReserved <= devBudget || r.KVReserved > devBudget+hostBudget {
		t.Fatalf("request between the device and the combined budget: err %v, cost %d; want served at a cost in (%d, %d]",
			r.Err, r.KVReserved, devBudget, devBudget+hostBudget)
	}
	if !errors.Is(got[1].Err, ErrTooLarge) {
		t.Fatalf("request beyond device + host: err %v, want ErrTooLarge", got[1].Err)
	}

	var retired int64 // the spilled stream's retirement round
	hostAt := map[int64]int64{}
	promoted := map[int64]int64{}
	for _, ev := range tracer.Events() {
		switch ev.Type {
		case obs.EvRetire:
			if ev.Req == 1 {
				retired = ev.Round
			}
		case obs.EvPagePromote:
			promoted[ev.Round] = ev.N
		case obs.EvRoundEnd:
			device, host := ev.N, ev.Aux
			if device < 0 || host > hostBudget {
				t.Fatalf("round %d: host %d slots against a footprint of %d and a host budget of %d",
					ev.Round, host, device+host, hostBudget)
			}
			if n := promoted[ev.Round]; n > device+host {
				t.Fatalf("round %d promoted %d slots, more than the whole footprint of %d", ev.Round, n, device+host)
			}
			hostAt[ev.Round] = host
		}
	}
	if retired == 0 || hostAt[retired] == 0 {
		t.Fatalf("the budgeted stream retired in round %d holding %d host slots; the load must spill it", retired, hostAt[retired])
	}
	if after, ok := hostAt[retired+1]; !ok || after >= hostAt[retired] {
		t.Fatalf("host count %d after the spilled stream retired (round %d), %d before: want it to shrink while the other stream decodes",
			after, retired+1, hostAt[retired])
	}

	// The idle engine holds no pages, so moving a slot either way is an
	// engine bug and panics.
	for _, n := range []int64{1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("moveHost(%d) on an empty footprint did not panic", n)
				}
			}()
			e.moveHost(n)
		}()
	}
}

// TestEvictedSpilledPrefixTakesItsHostSlots: evicting an idle prefix whose
// pages sit host-side, to admit the second request of a round whose first
// admission still holds its slots, frees those host slots with the pages.
// The two admissions' pages fit the device, so the round ends with nothing
// host-resident and promotes nothing: a slot left host-side for the first
// admission's hold would be promoted at the barrier as a page that never
// existed, and charged on the modeled channel.
func TestEvictedSpilledPrefixTakesItsHostSlots(t *testing.T) {
	m := testModel()
	tracer := obs.NewTracer(0)
	// 16-token pages. Device 128 and host 64 per-head slots: the 128-token
	// document fills the device alone, a 48-token request beside it spills
	// part of it host-ward, and two such requests do not fit beside it.
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 2, PageTokens: 16, KVBudget: 128, HostBudget: 64, Seed: 1, Trace: tracer.Recorder(0)})
	defer e.Close()
	doc := testDoc(71, 128)
	ask := Request{Prompt: append(append([]int{}, doc...), testDoc(72, 16)...), SharedPrefixLen: len(doc), MaxNewTokens: 2}
	short := func(seed uint64) Request { return Request{Prompt: testDoc(seed, 48), MaxNewTokens: 2} }
	for _, load := range [][]Request{{ask}, {short(73)}, {short(74), short(75)}} {
		for i, r := range e.Run(load) {
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
		}
	}

	var evicted, spilledHost int64
	for _, ev := range tracer.Events() {
		switch ev.Type {
		case obs.EvPageSpill:
			spilledHost += ev.N
		case obs.EvPrefixEvict:
			evicted = ev.Round
		case obs.EvPagePromote:
			if evicted > 0 {
				t.Fatalf("round %d promoted %d slots after the spilled prefix was evicted in round %d", ev.Round, ev.N, evicted)
			}
		case obs.EvRoundEnd:
			if evicted > 0 && ev.Aux != 0 {
				t.Fatalf("round %d ended with %d host slots after the only host-side pages were evicted in round %d", ev.Round, ev.Aux, evicted)
			}
		}
	}
	if spilledHost == 0 || evicted == 0 {
		t.Fatalf("spilled %d slots, evicted in round %d: the load must spill the idle prefix and evict it", spilledHost, evicted)
	}
}
