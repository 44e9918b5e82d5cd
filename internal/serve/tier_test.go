package serve

import (
	"errors"
	"testing"

	"clusterkv/internal/memsim"
	"clusterkv/internal/metrics"
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
		eng := NewEngine(testModel(), Config{
			Workers: 2, MaxBatch: 4, Seed: 7,
			KVBudget: 512, HostBudget: 4096, ModelHardware: slow,
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
