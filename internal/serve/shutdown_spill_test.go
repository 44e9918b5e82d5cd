package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestShutdownMidSpillDrainsCleanly is the regression lock for Shutdown
// racing the two-tier spill/promote pass: aborting an engine whose scheduler
// is actively re-accounting pages host-ward must still release every arena
// page and zero both tiers' gauges — a leak here would pin simulated KV for
// the life of the process. The load is sized so spilling is provably in progress
// (KVSpilled > 0) before the abort lands mid-round.
func TestShutdownMidSpillDrainsCleanly(t *testing.T) {
	m := testModel()
	// Long generations over a shared document whose prefill alone exceeds the
	// device budget: every round of this load runs under spill pressure.
	reqs := qaRequests(6, 256, 16, 400, clusterSel)
	e := NewEngine(m, Config{Workers: 2, MaxBatch: 3, KVBudget: 128, HostBudget: 8192, Seed: 3})
	var tickets []*Ticket
	for _, r := range reqs {
		tickets = append(tickets, e.Submit(r))
	}

	// Wait until the spill pass has demonstrably run, so the abort interrupts
	// a tiering engine, not an idle one.
	deadline := time.Now().Add(30 * time.Second)
	for e.Metrics().KVSpilled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no spill observed; load does not exercise the two-tier pass")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}

	aborted := 0
	for _, tk := range tickets {
		if resp := tk.Wait(); errors.Is(resp.Err, ErrAborted) {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("shutdown aborted nothing; the run completed before the abort and proves nothing")
	}

	// The heart of the regression: every page and every slot must be back.
	if lp := e.Arena().LivePages(); lp != 0 {
		t.Fatalf("leaked %d arena pages after mid-spill shutdown", lp)
	}
	mx := e.Metrics()
	if mx.KVUsed != 0 {
		t.Fatalf("leaked %d KV slots after mid-spill shutdown", mx.KVUsed)
	}
	if mx.KVHostUsed != 0 {
		t.Fatalf("host tier still accounts %d slots after shutdown", mx.KVHostUsed)
	}
	if mx.KVDeviceUsed != 0 {
		t.Fatalf("device tier still accounts %d slots after shutdown", mx.KVDeviceUsed)
	}
}
