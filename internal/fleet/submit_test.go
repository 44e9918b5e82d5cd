package fleet

import (
	"fmt"
	"sync"
	"testing"

	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// firstBooked returns the first replica still carrying booked requests or
// modeled backlog on the router's ledger, with its request count and
// backlog, or -1 when every replica is idle.
func firstBooked(r *Router) (rep int, reqs int64, backlog float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.engines {
		if r.assignedReqs[i] != 0 || r.backlogSec[i] != 0 {
			return i, r.assignedReqs[i], r.backlogSec[i]
		}
	}
	return -1, 0, 0
}

// TestSubmitPlacesAsRun locks the one placement path: on a fresh router,
// submitting a load then waiting every ticket places it exactly as Run does —
// the router lane's place, reroute and shed events agree on request,
// replica, marginal prefill and predicted TTFT, the summaries agree on
// routing and saved prefill — and once every ticket is waited the ledger
// holds no booked request and no backlog.
func TestSubmitPlacesAsRun(t *testing.T) {
	m := testModel()
	reqs := append(fleetLoad(1, 10), fleetLoad(3, 6)...)
	for _, slo := range []float64{0, 0.05} {
		place := func(submit bool) ([]string, Summary, *Router) {
			tracer := obs.NewTracer(0)
			r := NewRouter(m, Config{
				Replicas: 2,
				Engine:   serve.Config{Workers: 2, MaxBatch: 4, Seed: 5},
				SLOTTFT:  slo,
				Seed:     5,
				Trace:    tracer,
			})
			if submit {
				tickets := make([]*Ticket, len(reqs))
				for i, req := range reqs {
					tickets[i] = r.Submit(req)
				}
				for i, tk := range tickets {
					if resp := tk.Wait(); resp.Err != nil {
						t.Fatalf("slo=%v: submitted request %d: %v", slo, i, resp.Err)
					}
				}
			} else {
				for i, resp := range r.Run(reqs) {
					if resp.Err != nil {
						t.Fatalf("slo=%v: run request %d: %v", slo, i, resp.Err)
					}
				}
			}
			r.Close()
			var evs []string
			for _, ev := range tracer.Events() {
				if ev.Replica == -1 {
					evs = append(evs, fmt.Sprintf("%s req %d replica %d marg %d pred %v",
						ev.Type, ev.Req, ev.N, ev.Aux, ev.Sec))
				}
			}
			return evs, r.Summary(), r
		}
		runEvs, runSum, _ := place(false)
		subEvs, subSum, sub := place(true)
		if len(runEvs) != len(reqs)+int(runSum.Rerouted) {
			t.Fatalf("slo=%v: Run traced %d router events for %d requests and %d reroutes",
				slo, len(runEvs), len(reqs), runSum.Rerouted)
		}
		if slo > 0 && runSum.Rerouted == 0 {
			t.Fatalf("slo=%v: Run rerouted nothing; the SLO case proves nothing", slo)
		}
		for i := range max(len(runEvs), len(subEvs)) {
			var a, b string
			if i < len(runEvs) {
				a = runEvs[i]
			}
			if i < len(subEvs) {
				b = subEvs[i]
			}
			if a != b {
				t.Fatalf("slo=%v: router event %d differs:\nrun    %s\nsubmit %s", slo, i, a, b)
			}
		}
		if runSum.Routed != subSum.Routed || runSum.Shed != subSum.Shed ||
			runSum.Rerouted != subSum.Rerouted || runSum.SavedPrefillTokens != subSum.SavedPrefillTokens {
			t.Fatalf("slo=%v: summaries differ: run routed %d shed %d rerouted %d saved %d, submit %d %d %d %d",
				slo, runSum.Routed, runSum.Shed, runSum.Rerouted, runSum.SavedPrefillTokens,
				subSum.Routed, subSum.Shed, subSum.Rerouted, subSum.SavedPrefillTokens)
		}
		if rep, n, sec := firstBooked(sub); rep >= 0 {
			t.Fatalf("slo=%v: replica %d still books %d requests and %v s of backlog after every Wait",
				slo, rep, n, sec)
		}
	}
}

// TestStreamingConcurrentSubmitWait: four goroutines interleave Submit and
// Wait on a two-replica router whose single-slot intakes fill, so placements
// fail over and fall back to blocking. Every ticket resolves exactly once,
// every submission is routed, and once all are waited no replica carries a
// booked request or backlog.
func TestStreamingConcurrentSubmitWait(t *testing.T) {
	m := testModel()
	const goroutines, perG = 4, 6
	reqs := fleetLoad(3, goroutines*perG)
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 1, MaxBatch: 2, QueueCap: 1, Seed: 3},
		Seed:     3,
	})
	resps := make([][]Response, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var open []*Ticket
			for i := range perG {
				open = append(open, r.Submit(reqs[g*perG+i]))
				if i%2 == 1 { // wait the older of every two while the rest stay queued
					resps[g] = append(resps[g], open[0].Wait())
					open = open[1:]
				}
			}
			for _, tk := range open {
				resps[g] = append(resps[g], tk.Wait())
			}
		}()
	}
	wg.Wait()
	seen := map[[2]uint64]bool{}
	for g, rs := range resps {
		if len(rs) != perG {
			t.Fatalf("goroutine %d resolved %d of %d tickets", g, len(rs), perG)
		}
		for _, resp := range rs {
			if resp.Err != nil {
				t.Fatalf("goroutine %d: %v", g, resp.Err)
			}
			key := [2]uint64{uint64(resp.Replica), resp.ID}
			if seen[key] {
				t.Fatalf("replica %d request %d resolved twice", resp.Replica, resp.ID)
			}
			seen[key] = true
		}
	}
	if rep, n, sec := firstBooked(r); rep >= 0 {
		t.Fatalf("replica %d still books %d requests and %v s of backlog after every Wait", rep, n, sec)
	}
	r.Close()
	if sum := r.Summary(); sum.Routed != goroutines*perG || sum.Completed != goroutines*perG {
		t.Fatalf("routed %d completed %d, want %d", sum.Routed, sum.Completed, goroutines*perG)
	}
}
