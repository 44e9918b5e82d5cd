// Command clusterkv-fleet drives the multi-replica fleet router with a
// synthetic shared-document QA load and prints its routing/load report,
// mirroring clusterkv-serve's table at fleet granularity.
//
//	clusterkv-fleet                              # 4 replicas, prefix-affinity routing
//	clusterkv-fleet -replicas 8 -requests 64
//	clusterkv-fleet -slo-ttft 150 -shed          # SLO-aware shedding (modeled ms)
//	clusterkv-fleet -rate 8                      # open-loop Poisson arrivals (streaming path)
//	clusterkv-fleet -trace out.json              # Chrome trace_event timeline (Perfetto)
//	clusterkv-fleet -metrics -                   # text metrics exposition on stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/core"
	"clusterkv/internal/fleet"
	"clusterkv/internal/model"
	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

func main() {
	var (
		replicas  = flag.Int("replicas", 4, "engine replicas behind the router")
		sloTTFT   = flag.Float64("slo-ttft", 0, "modeled TTFT SLO in milliseconds (0 = none)")
		sloTBT    = flag.Float64("slo-tbt", 0, "modeled TBT SLO in milliseconds (0 = none)")
		shed      = flag.Bool("shed", false, "shed requests predicted to miss -slo-ttft on every replica")
		streams   = flag.Int("streams", 4, "per-replica concurrent decode streams (MaxBatch)")
		workers   = flag.Int("workers", 0, "per-replica round fan-out (0 = GOMAXPROCS)")
		kvBudget  = flag.Int64("kvbudget", 0, "per-replica device KV budget in per-head token slots (0 = unlimited)")
		requests  = flag.Int("requests", 16, "total requests in the load")
		docs      = flag.Int("docs", 4, "shared documents tenants ask about")
		docLen    = flag.Int("doclen", 1024, "document length (tokens)")
		qLen      = flag.Int("qlen", 32, "question suffix length (tokens)")
		newTok    = flag.Int("newtokens", 24, "tokens generated per request")
		budget    = flag.Int("budget", 256, "per-head KV budget for compressed methods")
		method    = flag.String("method", "clusterkv", "compression method (clusterkv, quest, fullkv)")
		loadKind  = flag.String("load", "qa", "workload shape: qa (shared-doc questions), chat (multi-turn sessions), agentic (re-entry loops), rag (templated retrieval); non-qa loads ignore -requests/-docs/-doclen/-qlen")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = deterministic closed-loop Run)")
		attr      = flag.Bool("attr", false, "print the per-request latency attribution table: per-phase breakdown on the modeled clock (DESIGN.md §14); -trace carries its span lanes and -metrics its clusterkv_attr_* series either way")
		seed      = flag.Uint64("seed", 1, "master seed")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON timeline (router lane + one lane per replica)")
		metricsTo = flag.String("metrics", "", "write text metrics exposition to this file after the run (\"-\" = stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if err := positive("replicas", "streams", "requests", "docs", "doclen", "qlen", "newtokens"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f := mustCreate(*cpuProf)
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
	}
	var reg *obs.Registry
	if *metricsTo != "" {
		reg = obs.NewRegistry()
	}

	var sel func() attention.Selector
	switch strings.ToLower(*method) {
	case "clusterkv":
		sel = func() attention.Selector { return core.New(core.NewConfig()) }
	case "quest":
		sel = func() attention.Selector { return baselines.NewQuest(baselines.NewQuestConfig()) }
	case "fullkv":
		sel = nil
	default:
		fmt.Fprintf(os.Stderr, "unknown -method %q (clusterkv, quest, fullkv)\n", *method)
		os.Exit(2)
	}

	var load []workload.QARequest
	var loadDesc string
	switch strings.ToLower(*loadKind) {
	case "qa":
		lc := workload.DefaultLoadConfig()
		lc.Doc.Seed = *seed
		lc.NDocs = *docs
		lc.DocLen = *docLen
		lc.NRequests = *requests
		lc.QuestionLen = *qLen
		lc.MaxNewTokens = *newTok
		load = workload.NewLoad(lc)
		loadDesc = fmt.Sprintf("%d requests over %d shared docs (%d+%d prompt tokens, %d generated each)",
			*requests, *docs, *docLen, *qLen, *newTok)
	case "chat":
		cc := workload.DefaultConversationConfig()
		cc.Doc.Seed = *seed
		cc.MaxNewTokens = *newTok
		load = workload.ConversationLoad(cc)
		loadDesc = fmt.Sprintf("%d chat requests (%d sessions x %d turns, nested histories, %d generated each)",
			len(load), cc.Sessions, cc.Turns, *newTok)
	case "agentic":
		ac := workload.DefaultAgenticConfig()
		ac.Doc.Seed = *seed
		ac.MaxNewTokens = *newTok
		load = workload.AgenticLoad(ac)
		loadDesc = fmt.Sprintf("%d agentic requests (%d agents x %d steps, re-entrant contexts, %d generated each)",
			len(load), ac.Agents, ac.Steps, *newTok)
	case "rag":
		rc := workload.DefaultRAGConfig()
		rc.Doc.Seed = *seed
		rc.MaxNewTokens = *newTok
		load = workload.RAGLoad(rc)
		loadDesc = fmt.Sprintf("%d RAG requests (shared template, %d chunks each, %d generated each)",
			len(load), rc.ChunksPerRequest, *newTok)
	default:
		fmt.Fprintf(os.Stderr, "unknown -load %q (qa, chat, agentic, rag)\n", *loadKind)
		os.Exit(2)
	}
	reqs := make([]serve.Request, len(load))
	for i, q := range load {
		reqs[i] = serve.Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
		}
		if sel != nil {
			reqs[i].Budget = *budget
			reqs[i].NewSelector = sel
		}
	}

	m := model.New(model.DefaultConfig())
	fmt.Printf("load: %s, method %s\n", loadDesc, *method)
	if *rate > 0 {
		fmt.Printf("arrivals: open-loop Poisson at %.2f req/s (live routing via TrySubmit)\n", *rate)
	} else {
		fmt.Printf("arrivals: closed loop (deterministic fleet Run)\n")
	}
	if *sloTTFT > 0 {
		fmt.Printf("slo: modeled ttft %.0fms (shed=%v)\n", *sloTTFT, *shed)
	}
	fmt.Printf("fleet: %d replicas, %d streams/replica, kv budget %v\n\n",
		*replicas, *streams, budgetStr(*kvBudget))

	ecfg := serve.DefaultConfig()
	ecfg.MaxBatch = *streams
	if *workers > 0 {
		ecfg.Workers = *workers
	}
	ecfg.KVBudget = *kvBudget
	ecfg.Seed = *seed
	router := fleet.NewRouter(m, fleet.Config{
		Replicas: *replicas,
		Engine:   ecfg,
		SLOTTFT:  *sloTTFT / 1e3,
		SLOTBT:   *sloTBT / 1e3,
		Shed:     *shed,
		Seed:     *seed,
		Trace:    tracer,
	})
	if *rate > 0 {
		arrivals := workload.PoissonArrivals(*seed, len(reqs), *rate)
		tickets := make([]*fleet.Ticket, len(reqs))
		for i, req := range reqs {
			time.Sleep(time.Duration(arrivals[i].Gap * float64(time.Second)))
			tickets[i] = router.Submit(req)
		}
		for _, tk := range tickets {
			tk.Wait()
		}
	} else {
		router.Run(reqs)
	}
	router.Close()
	sum := router.Summary()
	fmt.Print(sum)
	if *attr {
		fmt.Print(sum.Attribution)
	}
	if reg != nil {
		router.FillRegistry(reg)
	}

	if tracer != nil {
		if reg != nil {
			tracer.FillRegistry(reg)
		}
		f := mustCreate(*traceOut)
		err := obs.WriteChromeTraceFrom(f, tracer)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped) -> %s\n",
			tracer.Len(), tracer.Dropped(), *traceOut)
	}
	if reg != nil {
		w := os.Stdout
		if *metricsTo != "-" {
			w = mustCreate(*metricsTo)
			defer w.Close()
		}
		if err := reg.WriteText(w); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
	}
	if *memProf != "" {
		f := mustCreate(*memProf)
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// positive returns an error naming the first of the named int flags whose
// value is below 1: no load or engine dimension can be zero or negative.
func positive(names ...string) error {
	for _, n := range names {
		if v := flag.Lookup(n).Value.(flag.Getter).Get().(int); v < 1 {
			return fmt.Errorf("-%s %d: must be at least 1", n, v)
		}
	}
	return nil
}

func mustCreate(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return f
}

func budgetStr(b int64) string {
	if b <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d slots", b)
}
