package bench

import (
	"fmt"

	"clusterkv/internal/attention"
	"clusterkv/internal/core"
	"clusterkv/internal/memsim"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// RunOverlap reproduces the Fig. 6 / §V-C prefill-overhead analysis: the
// asynchronous clustering pipeline exposure, the clustering share of prefill
// (paper: 6–8%) and of total inference time (paper: <2%).
func RunOverlap(opt Options) *Report {
	opt = opt.withDefaults()
	hw := memsim.AdaRTX6000()
	shape := memsim.Llama31_8B()

	rep := &Report{
		ID:      "overlap",
		Title:   "Asynchronous clustering overhead during prefill (paper Fig. 6, §V-C)",
		Headers: []string{"P", "Prefill(s)", "ClusterBusy(s)", "Exposed(s)", "Cluster/Prefill", "Cluster/Total(D=1024)"},
	}
	for _, p := range Fig12Prompts {
		cts := MeasureClusterKV(min(p, opt.MaxCtx), 32, 1024, traceCoreConfig(), opt.Seed^uint64(p))
		exposed, busy, prefill := clusterPrefillExposure(hw, shape, p, cts.KMeansIters, 2)
		step := hw.DecodeStepClusterKV(shape, memsim.ClusterKVCounts{
			Budget: 1024, Clusters: cts.AvgClusters, MissRate: cts.MissRate,
		})
		total := prefill + exposed + 1024*step.Total
		rep.AddRow(
			label(fmt.Sprintf("%dk", p/1024)),
			num("", prefill, "s", "%.2f"), num("", busy, "s", "%.2f"), num("", exposed, "s", "%.3f"),
			num("", busy/prefill, "frac", "%.1f%%"),
			num("", busy/total, "frac", "%.2f%%"),
		)
	}
	rep.Notes = append(rep.Notes,
		"clustering is launched right after QKV+RoPE of each layer and overlaps",
		"with attention/FFN (Fig. 6); paper: 6-8% of prefill, <2% of total.",
	)
	return rep
}

// RunXferOverlap measures the tiered-KV transfer runtime on the longdoc QA
// serving load: layer-ahead cluster prefetch overlapped with compute on one
// modeled PCIe channel. Link and compute window come from the same modeled
// machine (the engine's memsim.LatencyModel), so busy, exposed, hidden and
// the prefetch hit rate are pure functions of the seed; the hidden fraction
// is the share of channel-busy time that never reached the critical path (a
// blocking channel would expose all of it). Nothing here reads the wall
// clock.
//
// The engine runs two-tier admission with a device budget deliberately
// smaller than one request's prefill footprint: before the host tier, this
// load was refused outright (ErrTooLarge); here it is served completely with
// cold pages spilled host-ward between rounds.
func RunXferOverlap(o Options) *Report {
	o = o.withDefaults()
	// A wider model than the evaluation default: four KV heads per layer put
	// more pages on the link per step.
	mc := model.DefaultConfig()
	mc.DModel = 128
	mc.NHeads = 4
	mc.NKVHeads = 4
	mc.HeadDim = 32
	mc.FFNDim = 256
	m := model.New(mc)

	docLen := 512
	if o.ModelCtx < 1024 {
		docLen = 256
	}
	const (
		qLen    = 32
		maxNew  = 32
		nReqs   = 8
		budget  = 64
		hostBud = 16384
	)
	// Device budget: below one request's admission need (docLen + budget in
	// legacy terms, so the load was unservable pre-host-tier) but at or above
	// the active batch's hot floor — MaxBatch × (budget + tail) pages, the
	// working sets spilling can never evict — so round-barrier device
	// residency lands exactly on the budget.
	devBudget := int64(docLen)
	lc := workload.LoadConfig{
		Doc:          workload.DefaultDocConfig(),
		NDocs:        2,
		DocLen:       docLen,
		NRequests:    nReqs,
		QuestionLen:  qLen,
		MaxNewTokens: maxNew,
	}
	lc.Doc.Seed = o.Seed
	load := workload.NewLoad(lc)
	reqs := make([]serve.Request, len(load))
	for i, q := range load {
		reqs[i] = serve.Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
			Budget:          budget,
			NewSelector: func() attention.Selector {
				cfg := core.NewConfig()
				// Retain selected clusters two steps: steadier working set,
				// less page churn on the modeled channel.
				cfg.CacheR = 2
				return core.New(cfg)
			},
		}
	}

	rep := &Report{
		ID:    "overlap",
		Title: "transfer runtime: overlapped fetches, longdoc QA serve load",
		Headers: []string{"served", "busy(ms)", "exposed(ms)",
			"hidden(ms)", "hidden%", "prefetch hit%", "dev peak", "host peak"},
	}

	eng := serve.NewEngine(m, serve.Config{
		Workers: 2, MaxBatch: 2, Seed: o.Seed,
		KVBudget: devBudget, HostBudget: hostBud,
	})
	served := 0
	for _, r := range eng.Run(reqs) {
		if r.Err == nil {
			served++
		}
	}
	eng.Close()
	mx := eng.Metrics()
	tr := mx.Transfer
	rep.AddRow(
		num("async.served", float64(served), "count", fmt.Sprintf("%%.0f/%d", nReqs)),
		num("async.busy_ms", tr.BusySec*1e3, "ms", "%.1f"),
		num("async.exposed_ms", tr.ExposedSec*1e3, "ms", "%.1f"),
		num("async.hidden_ms", tr.HiddenSec()*1e3, "ms", "%.1f"),
		num("async.hidden_frac", tr.HiddenFrac(), "frac", "%.0f%%"),
		num("async.prefetch_hit_rate", tr.PrefetchHitRate(), "frac", "%.0f%%"),
		num("async.kv_device_peak", float64(mx.KVDevicePeak), "slots", fmt.Sprintf("%%.0f/%d", mx.KVCapacity)),
		num("async.kv_host_peak", float64(mx.KVHostPeak), "slots", fmt.Sprintf("%%.0f/%d", mx.KVHostCapacity)),
	)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("load: %d requests, %d docs x %d tokens, %d-token questions, %d new tokens, budget %d",
			nReqs, lc.NDocs, docLen, qLen, maxNew, budget),
		"modeled machine: Llama-3.1-8B on the paper GPU — PCIe cost per (layer,head) KV page, one layer of a decode step as the window a prefetch hides behind",
		fmt.Sprintf("two-tier admission: device budget %d slots/head < one prefill footprint -> refused outright before the host tier; served with cold-page spilling now", devBudget),
		"layer-ahead cluster prefetch is issued mid-Select of layer l and due when layer l+1 starts; hidden% is transfer time that overlapped with modeled compute")
	return rep
}
