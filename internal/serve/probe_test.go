package serve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"clusterkv/internal/attention"
)

// TestTrySubmitBackpressure: with a single-slot intake queue and the lone
// scheduler worker pinned inside long prefill rounds, TrySubmit must
// eventually report ok=false instead of blocking — and every accepted
// submission must still complete on drain.
func TestTrySubmitBackpressure(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 1, QueueCap: 1, Seed: 1})

	// Long prefills keep the scheduler mid-round (intake drains only at round
	// barriers), so a filled intake slot stays filled long enough to observe.
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tickets = append(tickets, e.Submit(Request{
			Prompt: testDoc(uint64(i), 1024), MaxNewTokens: 2,
		}))
	}

	small := Request{Prompt: testDoc(9, 16), MaxNewTokens: 1}
	sawBackpressure := false
	deadline := time.Now().Add(30 * time.Second)
	for !sawBackpressure && time.Now().Before(deadline) {
		tk, ok := e.TrySubmit(small)
		if !ok {
			if tk != nil {
				t.Fatal("backpressured TrySubmit returned a ticket")
			}
			sawBackpressure = true
			break
		}
		tickets = append(tickets, tk)
	}
	if !sawBackpressure {
		t.Fatal("TrySubmit never reported backpressure on a full single-slot intake")
	}

	e.Close()
	for i, tk := range tickets {
		if resp := tk.Wait(); resp.Err != nil {
			t.Fatalf("accepted submission %d failed across drain: %v", i, resp.Err)
		}
	}
}

// TestTrySubmitClosedAndInvalid: closed engines and invalid requests behave
// exactly like Submit — ok is true and the ticket already carries the error.
func TestTrySubmitClosedAndInvalid(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, Seed: 1})
	tk, ok := e.TrySubmit(Request{Prompt: []int{1, 2}, MaxNewTokens: 0})
	if !ok || tk == nil {
		t.Fatal("invalid request was reported as backpressure")
	}
	if resp := tk.Wait(); !errors.Is(resp.Err, ErrBadRequest) {
		t.Fatalf("invalid TrySubmit err = %v, want ErrBadRequest", resp.Err)
	}
	// Valid request round-trips.
	tk, ok = e.TrySubmit(Request{Prompt: testDoc(1, 24), MaxNewTokens: 2})
	if !ok {
		t.Fatal("empty engine backpressured a TrySubmit")
	}
	if resp := tk.Wait(); resp.Err != nil || len(resp.Tokens) != 2 {
		t.Fatalf("TrySubmit response: err=%v tokens=%d", resp.Err, len(resp.Tokens))
	}
	mx := e.Metrics()
	if mx.Submitted != 2 || mx.Failed != 1 || mx.Completed != 1 {
		t.Fatalf("submitted=%d completed=%d failed=%d", mx.Submitted, mx.Completed, mx.Failed)
	}
	e.Close()
	tk, ok = e.TrySubmit(Request{Prompt: testDoc(1, 24), MaxNewTokens: 2})
	if !ok || tk == nil {
		t.Fatal("closed engine was reported as backpressure")
	}
	if resp := tk.Wait(); !errors.Is(resp.Err, ErrClosed) {
		t.Fatalf("post-close TrySubmit err = %v, want ErrClosed", resp.Err)
	}
}

// TestPrefixResidentProbe: after serving a shared-prefix load, the content
// hash of the shared document answers true (the entry stays cached while the
// engine lives), a foreign hash answers false, and Close empties the index.
func TestPrefixResidentProbe(t *testing.T) {
	m := testModel()
	const docLen = 128
	reqs := qaRequests(3, docLen, 8, 3, clusterSel)
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 4, Seed: 1})
	for i, r := range e.Run(reqs) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	doc := reqs[0].Prompt[:docLen]
	if !e.PrefixResident(PrefixKey(doc)) {
		t.Fatal("served shared prefix not reported resident")
	}
	if e.PrefixResident(PrefixKey(testDoc(77, docLen))) {
		t.Fatal("never-served prefix reported resident")
	}
	e.Close()
	if e.PrefixResident(PrefixKey(doc)) {
		t.Fatal("prefix still reported resident after Close released the cache")
	}
}

// TestPrefixResidentTracksEviction: evicting an idle prefix under budget
// pressure must also drop it from the residency index.
func TestPrefixResidentTracksEviction(t *testing.T) {
	m := testModel()
	const docLen = 96
	// Two disjoint shared documents served back-to-back under a budget that
	// cannot cache both: admitting the second evicts the idle first.
	docA := testDoc(21, docLen)
	docB := testDoc(22, docLen)
	mk := func(doc []int, qseed uint64) Request {
		prompt := append(append([]int{}, doc...), testDoc(qseed, 8)...)
		return Request{Prompt: prompt, SharedPrefixLen: docLen, MaxNewTokens: 2}
	}
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 1, KVBudget: 160, Seed: 1})
	defer e.Close()
	if resp := e.Submit(mk(docA, 31)).Wait(); resp.Err != nil {
		t.Fatalf("docA request: %v", resp.Err)
	}
	if !e.PrefixResident(PrefixKey(docA)) {
		t.Fatal("docA not resident after serving")
	}
	if resp := e.Submit(mk(docB, 32)).Wait(); resp.Err != nil {
		t.Fatalf("docB request: %v", resp.Err)
	}
	if !e.PrefixResident(PrefixKey(docB)) {
		t.Fatal("docB not resident after serving")
	}
	if e.PrefixResident(PrefixKey(docA)) {
		t.Fatal("evicted docA still reported resident")
	}
	if e.Metrics().PrefixEvicted == 0 {
		t.Fatal("no eviction happened; budget not tight enough to exercise the index")
	}
}

// TestOccupancyProbe: gauges reflect a running engine and return to idle
// zeros (with zero live pages) once everything drains. The first request's
// selector factory blocks inside its prefill round until the gauge has been
// sampled, so the busy snapshot does not depend on how fast requests finish.
func TestOccupancyProbe(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 2, QueueCap: 8, Seed: 1})
	if occ := e.Occupancy(); occ.IntakeCap != 8 {
		t.Fatalf("IntakeCap = %d, want 8", occ.IntakeCap)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		req := Request{Prompt: testDoc(uint64(i), 256), MaxNewTokens: 8}
		if i == 0 {
			req.NewSelector = func() attention.Selector {
				close(entered)
				<-release
				return nil
			}
		}
		tickets = append(tickets, e.Submit(req))
	}
	<-entered
	occ := e.Occupancy()
	close(release)
	if occ.Active < 1 || occ.Active > 2 {
		t.Fatalf("Active = %d while a request is held in its prefill round, want 1..2 (MaxBatch 2)", occ.Active)
	}
	for _, tk := range tickets {
		if resp := tk.Wait(); resp.Err != nil {
			t.Fatalf("request failed: %v", resp.Err)
		}
	}
	e.Close()
	occ = e.Occupancy()
	if occ.Queued != 0 || occ.Active != 0 || occ.IntakeBacklog != 0 {
		t.Fatalf("drained engine occupancy not idle: %+v", occ)
	}
	if occ.LivePages != 0 {
		t.Fatalf("drained engine still holds %d live pages", occ.LivePages)
	}
}

// TestAlignedPrefixKeys locks the exported hash chain: one key per page
// boundary plus the whole slice, each equal to PrefixKey of that prefix, and a
// named panic — not an integer-divide fault — on a non-positive page size.
func TestAlignedPrefixKeys(t *testing.T) {
	toks := testDoc(5, 40)
	keys := AlignedPrefixKeys(toks, 16)
	depths := []int{16, 32, 40}
	if len(keys) != len(depths) {
		t.Fatalf("%d keys for 40 tokens at 16/page, want %d", len(keys), len(depths))
	}
	for i, d := range depths {
		if keys[i] != PrefixKey(toks[:d]) {
			t.Fatalf("key %d is not PrefixKey(tokens[:%d])", i, d)
		}
	}
	if got := AlignedPrefixKeys(toks[:32], 16); len(got) != 2 || got[1] != keys[1] {
		t.Fatalf("page-aligned slice: keys %v, want the first two of %v", got, keys)
	}
	if got := AlignedPrefixKeys(nil, 16); len(got) != 0 {
		t.Fatalf("empty slice produced keys %v", got)
	}
	for _, p := range []int{0, -4} {
		func() {
			defer func() {
				if r, ok := recover().(string); !ok || !strings.Contains(r, "pageTokens") {
					t.Fatalf("pageTokens=%d: panic value %v, want a message naming pageTokens", p, r)
				}
			}()
			AlignedPrefixKeys(toks, p)
		}()
	}
}
