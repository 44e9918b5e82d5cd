package serve

import (
	"errors"
	"testing"
)

// TestExactAdmissionAdmitsLoadWorstCaseRefuses is the admission-policy
// acceptance lock: on a long-generation shared-doc load whose every request
// an up-front worst-case reservation (marginal tail + MaxNewTokens + 1 slots)
// would refuse outright as larger than the whole KVBudget, exact page
// admission — which gates on prefill pages plus one page of decode headroom
// — serves all of them.
func TestExactAdmissionAdmitsLoadWorstCaseRefuses(t *testing.T) {
	m := testModel()
	const (
		nReqs  = 4
		docLen = 128
		qLen   = 8
		maxNew = 400
		budget = 350 // per-head slots: < qLen+maxNew+1, but > prefill pages + headroom
	)
	reqs := qaRequests(nReqs, docLen, qLen, maxNew, nil)
	for i := range reqs {
		reqs[i].Budget = 0
		if worst := len(reqs[i].Prompt) - reqs[i].SharedPrefixLen + maxNew + 1; worst <= budget {
			t.Fatalf("request %d: worst-case reservation %d fits budget %d — load does not discriminate", i, worst, budget)
		}
	}

	e := NewEngine(m, Config{Workers: 1, MaxBatch: 4, KVBudget: budget, Seed: 1})
	defer e.Close()
	for i, r := range e.Run(reqs) {
		if r.Err != nil {
			t.Fatalf("request %d refused under exact admission: %v", i, r.Err)
		}
	}
}

// TestExactAdmissionSharedPagesChargedOnce is the shared-prefix accounting
// regression (the TryReserve double-count fix): with every request forking
// one cached document, the footprint holds the prefix pages once — after the
// load drains, exactly the snapshot's pages stay charged, regardless of how
// many forks read them.
func TestExactAdmissionSharedPagesChargedOnce(t *testing.T) {
	m := testModel()
	planes := int64(m.Config().NLayers * m.Config().NKVHeads)
	const docLen = 128 // exactly 2 default pages
	doc := testDoc(21, docLen)
	var reqs []Request
	for i := 0; i < 6; i++ {
		prompt := append(append([]int{}, doc...), testDoc(uint64(300+i), 8)...)
		reqs = append(reqs, Request{Prompt: prompt, SharedPrefixLen: docLen, MaxNewTokens: 4})
	}

	e := NewEngine(m, Config{Workers: 2, MaxBatch: 4, KVBudget: 4096, Seed: 1})
	for i, r := range e.Run(reqs) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	pageTokens := int64(e.Arena().PageTokens())
	prefixPages := int64((docLen + int(pageTokens) - 1) / int(pageTokens))
	if used := e.Metrics().KVUsed; used != prefixPages*pageTokens {
		t.Fatalf("post-drain charge = %d slots, want the cached prefix alone = %d", used, prefixPages*pageTokens)
	}
	if live := e.Arena().LivePages(); live != prefixPages*planes {
		t.Fatalf("live pages = %d, want %d (snapshot only)", live, prefixPages*planes)
	}
	e.Close()
	if live := e.Arena().LivePages(); live != 0 {
		t.Fatalf("leaked %d live pages after Close", live)
	}
}

// TestExactAdmissionOversized: a prompt whose prefill pages alone exceed the
// budget fails fast.
func TestExactAdmissionOversized(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, KVBudget: 32, Seed: 1})
	defer e.Close()
	resp := e.Submit(Request{Prompt: testDoc(1, 512), MaxNewTokens: 4}).Wait()
	if !errors.Is(resp.Err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", resp.Err)
	}
}

// TestExactAdmissionHonorsSelectorBudget: a budgeted compressed tenant
// whose prompt pages exceed the KV budget must still admit (its *device*
// residency is bounded by Budget; the extra pages are simulated host
// memory): the admission estimate is capped at the selector budget.
func TestExactAdmissionHonorsSelectorBudget(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, KVBudget: 300, Seed: 1})
	defer e.Close()
	// 512-token prompt -> ~9 pages = 576 per-head slots of arena memory,
	// far over the 300-slot budget; the selector keeps only 64 device-side.
	resp := e.Submit(Request{Prompt: testDoc(2, 512), MaxNewTokens: 4, Budget: 64,
		NewSelector: clusterSel}).Wait()
	if resp.Err != nil {
		t.Fatalf("budgeted long-prompt request refused under exact admission: %v", resp.Err)
	}
	if resp.KVReserved != 64 {
		t.Fatalf("admission hold = %d, want the selector budget 64", resp.KVReserved)
	}
	// Without a selector nothing keeps pages off the device, so Budget caps
	// nothing: the same prompt is as oversized as an unbudgeted one.
	resp = e.Submit(Request{Prompt: testDoc(2, 512), MaxNewTokens: 4, Budget: 64}).Wait()
	if !errors.Is(resp.Err, ErrTooLarge) {
		t.Fatalf("budget without a selector: err = %v (hold %d), want ErrTooLarge", resp.Err, resp.KVReserved)
	}
	// A sub-page budget keeps admitting small unbudgeted requests too.
	e2 := NewEngine(m, Config{Workers: 1, KVBudget: 32, Seed: 1})
	defer e2.Close()
	if resp := e2.Submit(Request{Prompt: testDoc(3, 10), MaxNewTokens: 4}).Wait(); resp.Err != nil {
		t.Fatalf("sub-page budget refused a tiny request: %v", resp.Err)
	}
}

// TestExactAdmissionSerialisesUnderTightBudget: a budget that fits one
// stream's pages serialises the streams without failing any, and the sampled
// high-water mark respects the (page-rounded) budget.
func TestExactAdmissionSerialisesUnderTightBudget(t *testing.T) {
	m := testModel()
	var reqs []Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, Request{
			Prompt:       testDoc(uint64(i), 48),
			MaxNewTokens: 4,
			// Unbudgeted: 48+1+4 = 53 tokens -> one 64-token page per plane.
		})
	}
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 8, KVBudget: 100, Seed: 1})
	resps := e.Run(reqs)
	mx := e.Metrics()
	e.Close()

	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if mx.KVPeak > 100 {
		t.Fatalf("KV peak %d exceeded budget", mx.KVPeak)
	}
	// One page per plane per stream; two streams never fit 100 slots, so
	// admissions are strictly ordered.
	for i := 1; i < len(resps); i++ {
		if resps[i].AdmitRound <= resps[i-1].AdmitRound {
			t.Fatalf("requests %d and %d overlapped under exclusive budget", i-1, i)
		}
	}
	if mx.KVUsed != 0 {
		t.Fatalf("KV still charged after drain: %d", mx.KVUsed)
	}
}

// TestExactAdmissionMetrics checks the per-head unit reporting of the exact
// page meter: capacity round-trips the config, the peak is positive and
// bounded, and a completed load leaves only the cached prefix charged.
func TestExactAdmissionMetrics(t *testing.T) {
	m := testModel()
	reqs := qaRequests(4, 96, 8, 5, clusterSel)
	e := NewEngine(m, Config{Workers: 2, MaxBatch: 2, KVBudget: 4096, Seed: 1})
	e.Run(reqs)
	mx := e.Metrics()
	if mx.KVCapacity != 4096 {
		t.Fatalf("capacity = %d, want 4096 per-head slots", mx.KVCapacity)
	}
	// The cached 96-token document spans two pages -> 128 per-head slots.
	if mx.KVUsed != 128 {
		t.Fatalf("cached prefix charge = %d per-head slots, want 128", mx.KVUsed)
	}
	if mx.KVPeak < mx.KVUsed || mx.KVPeak > 4096 {
		t.Fatalf("KV peak = %d", mx.KVPeak)
	}
	e.Close()
	if used := e.Metrics().KVUsed; used != 0 {
		t.Fatalf("KV charged after close: %d", used)
	}
}
