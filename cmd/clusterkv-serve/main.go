// Command clusterkv-serve drives the serving stack — a fleet.Router over one
// or more serve.Engine replicas — with a synthetic multi-tenant load (many
// questions over shared long documents, or chat, agentic or RAG traffic) and
// prints one report per compression method: the fleet summary, then each
// replica's engine metrics. A closing table compares the methods under
// identical load, and the fleet against serial one-at-a-time decode of the
// same request set.
//
//	clusterkv-serve                      # default: 1 replica, 8 streams, 16 requests
//	clusterkv-serve -streams 8 -requests 32 -doclen 2048
//	clusterkv-serve -replicas 4 -method clusterkv   # prefix-affinity routing over 4 replicas
//	clusterkv-serve -slo-ttft 150 -shed  # SLO-aware shedding (modeled ms)
//	clusterkv-serve -rate 4              # open-loop Poisson arrivals, 4 req/s
//	clusterkv-serve -method clusterkv -trace out.json   # Chrome trace_event timeline (Perfetto)
//	clusterkv-serve -metrics -           # text metrics exposition on stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/core"
	"clusterkv/internal/fleet"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/model"
	"clusterkv/internal/obs"
	"clusterkv/internal/parallel"
	"clusterkv/internal/serve"
	"clusterkv/internal/tensor"
	"clusterkv/internal/workload"
)

type methodSpec struct {
	name string
	sel  func() attention.Selector // nil factory = full attention
}

// methods resolves -method: "all", or a comma-separated list of method names
// (case-insensitive). The first name that matches no method is an error, so a
// typo never silently drops a method from the comparison.
func methods(which string) ([]methodSpec, error) {
	all := []methodSpec{
		{"ClusterKV", func() attention.Selector { return core.New(core.NewConfig()) }},
		{"Quest", func() attention.Selector { return baselines.NewQuest(baselines.NewQuestConfig()) }},
		{"FullKV", nil},
	}
	if strings.TrimSpace(strings.ToLower(which)) == "all" {
		return all, nil
	}
	var out []methodSpec
	for _, w := range strings.Split(which, ",") {
		w = strings.TrimSpace(strings.ToLower(w))
		i := slices.IndexFunc(all, func(m methodSpec) bool { return strings.ToLower(m.name) == w })
		if i < 0 {
			return nil, fmt.Errorf("unknown -method %q (clusterkv, quest, fullkv, or all alone)", w)
		}
		out = append(out, all[i])
	}
	return out, nil
}

// atLeast returns an error naming the first of the named numeric flags whose
// value is below lo: no load, engine or fleet dimension can be below 1, and
// no budget, rate, SLO or pool width below 0 (where 0 means none or default).
func atLeast(lo float64, names ...string) error {
	for _, n := range names {
		v := flag.Lookup(n).Value.String()
		if f, _ := strconv.ParseFloat(v, 64); f < lo { // flag.Parse accepted v as a number
			return fmt.Errorf("-%s %s: must be at least %g", n, v, lo)
		}
	}
	return nil
}

func main() {
	var (
		replicas  = flag.Int("replicas", 1, "engine replicas behind the router (prefix-affinity routing with a least-loaded fallback)")
		streams   = flag.Int("streams", 8, "per-replica concurrent decode streams (continuous-batching batch size)")
		intraOp   = flag.Int("intraop", 0, "shared worker pool width for kernels and step fan-out (0 = GOMAXPROCS); outputs are width-independent, -intraop 1 serializes everything")
		requests  = flag.Int("requests", 16, "total requests in the load")
		docs      = flag.Int("docs", 2, "shared documents tenants ask about")
		docLen    = flag.Int("doclen", 1024, "document length (tokens)")
		qLen      = flag.Int("qlen", 32, "question suffix length (tokens)")
		newTok    = flag.Int("newtokens", 24, "tokens generated per request")
		budget    = flag.Int("budget", 256, "per-head KV budget for compressed methods")
		kvBudget  = flag.Int64("kvbudget", 0, "per-replica device KV budget in per-head token slots, metered in exact arena pages (0 = unlimited: the prefix cache then never evicts and grows with the distinct documents served, so set it for an open-loop -rate server over an open document set)")
		hostBud   = flag.Int64("hostbudget", 0, "per-replica host-tier KV budget in per-head token slots (0 = single-tier); with -kvbudget set, admission gates on device+host and cold pages spill host-ward between rounds")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate in req/s, streamed through Router.Submit: placed by Run's ledger rule, each booking settled as its request completes (0 = closed loop, one deterministic Router.Run)")
		sloTTFT   = flag.Float64("slo-ttft", 0, "modeled TTFT SLO in milliseconds (0 = none)")
		sloTBT    = flag.Float64("slo-tbt", 0, "modeled TBT SLO in milliseconds (0 = none)")
		shed      = flag.Bool("shed", false, "shed requests predicted to miss -slo-ttft on every replica")
		attrOn    = flag.Bool("attr", false, "print the per-request latency attribution table: per-phase breakdown on the modeled clock (DESIGN.md §14); -trace carries its span lanes and -metrics its clusterkv_attr_* series either way")
		seed      = flag.Uint64("seed", 1, "master seed")
		method    = flag.String("method", "all", "methods to serve (clusterkv, quest, fullkv, all)")
		loadKind  = flag.String("load", "qa", "workload shape: qa (shared-doc questions), chat (multi-turn sessions), agentic (re-entry loops), rag (templated retrieval); non-qa loads ignore -requests/-docs/-doclen/-qlen")
		noPrefix  = flag.Bool("noprefixcache", false, "declare no shared prefixes (every request prefills its whole prompt)")
		noSerial  = flag.Bool("noserial", false, "skip the serial one-at-a-time baseline and the token-for-token check of served outputs against it")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON timeline of one method's run: router lane pid 0, replica i on pid i+1 (load in chrome://tracing or Perfetto)")
		metricsTo = flag.String("metrics", "", "write text metrics exposition to this file after the run (\"-\" = stdout); one series set per method, labeled method=<name>, with replica=<i> on each engine's series")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	specs, err := methods(*method)
	if err == nil {
		err = atLeast(1, "replicas", "streams", "requests", "docs", "doclen", "qlen", "newtokens")
	}
	if err == nil {
		err = atLeast(0, "kvbudget", "hostbudget", "budget", "rate", "slo-ttft", "slo-tbt", "intraop")
	}
	if err == nil && *hostBud > 0 && *kvBudget == 0 {
		err = fmt.Errorf("-hostbudget %d: needs a -kvbudget, the device tier it backs", *hostBud)
	}
	if err == nil && *traceOut != "" && len(specs) > 1 {
		err = fmt.Errorf("-trace %s: needs a single -method (a trace is one fleet's lanes), got %d", *traceOut, len(specs))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *intraOp > 0 {
		parallel.SetDefaultWidth(*intraOp)
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

	if *noPrefix {
		for i := range load {
			load[i].SharedPrefixLen = 0
		}
	}

	m := model.New(model.DefaultConfig())
	fmt.Printf("load: %s\n", loadDesc)
	if *rate > 0 {
		fmt.Printf("arrivals: open-loop Poisson at %.2f req/s (streamed through Router.Submit)\n", *rate)
	} else {
		fmt.Printf("arrivals: closed loop (all requests queued up front, deterministic Router.Run)\n")
	}
	admission := fmt.Sprintf("exact pages (%d-token pages)", kvcache.DefaultPageTokens)
	if *hostBud > 0 && *kvBudget > 0 {
		admission = fmt.Sprintf("two-tier exact pages (device %d + host %d slots/head)", *kvBudget, *hostBud)
	}
	prefixCache := "on"
	if *noPrefix {
		prefixCache = "off"
	}
	fmt.Printf("serving: %d replicas x %d streams, intra-op pool %d, prefix cache %s, KV budget %v per replica, admission %s\n\n",
		*replicas, *streams, parallel.Default().Width(), prefixCache, budgetStr(*kvBudget), admission)

	// A row's wall latencies and prefill saved come from the fleet Summary,
	// so they read the same at every replica count.
	type row struct {
		name             string
		serialTokS, tokS float64
		speedup          float64
		sum              fleet.Summary
		match            string
	}
	var rows []row

	for _, spec := range specs {
		reqs := buildRequests(load, spec, *budget)

		var serialSecs float64
		var serialTok int64
		var serialOut [][]int
		if !*noSerial {
			start := time.Now()
			serialOut = runSerial(m, reqs)
			serialSecs = time.Since(start).Seconds()
			for _, ts := range serialOut {
				serialTok += int64(len(ts))
			}
		}

		ecfg := serve.DefaultConfig()
		ecfg.MaxBatch = *streams
		ecfg.KVBudget = *kvBudget
		ecfg.HostBudget = *hostBud
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
		start := time.Now()
		resps := dispatch(router, reqs, *rate, *seed)
		wall := time.Since(start).Seconds()
		router.Close() // drain before the snapshot
		sum := router.Summary()
		if reg != nil {
			router.FillRegistry(reg, obs.L("method", strings.ToLower(spec.name)))
		}

		failed, compared := 0, 0
		match := "n/a"
		for i, r := range resps {
			if r.Err != nil {
				failed++
				continue
			}
			if serialOut != nil {
				compared++
				if !slices.Equal(r.Tokens, serialOut[i]) {
					match = "NO"
				}
			}
		}
		if compared > 0 && match == "n/a" {
			match = "yes"
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d requests failed\n", spec.name, failed)
		}

		r := row{name: spec.name, tokS: float64(sum.TokensGenerated) / wall, sum: sum, match: match}
		if serialSecs > 0 {
			r.serialTokS = float64(serialTok) / serialSecs
			r.speedup = r.tokS / r.serialTokS
		}
		rows = append(rows, r)

		fmt.Printf("== %s ==\n%s", spec.name, sum)
		if *attrOn {
			sum.Attribution.WriteTable(os.Stdout)
		}
		for i, rs := range sum.PerReplica {
			fmt.Printf("-- replica %d --\n%s", i, rs)
		}
		if serialSecs > 0 {
			fmt.Printf("serial baseline: %.1f tok/s (one request at a time, full per-request prefill)\n", r.serialTokS)
			fmt.Printf("engine speedup:  %.2fx aggregate tokens/sec over serial decode\n", r.speedup)
		}
		fmt.Println()
	}

	// Summary table.
	fmt.Printf("%-10s %12s %12s %9s %10s %10s %10s %14s %6s\n",
		"method", "serial tok/s", "engine tok/s", "speedup", "ttft p50", "ttft p95", "tbt p50", "prefill saved", "match")
	for _, r := range rows {
		serial := "-"
		speedup := "-"
		if r.serialTokS > 0 {
			serial = fmt.Sprintf("%.1f", r.serialTokS)
			speedup = fmt.Sprintf("%.2fx", r.speedup)
		}
		a := r.sum.Attribution
		fmt.Printf("%-10s %12s %12.1f %9s %8.1fms %8.1fms %8.2fms %14d %6s\n",
			r.name, serial, r.tokS, speedup, a.TTFT.P50*1e3, a.TTFT.P95*1e3, a.TBT.P50*1e3, r.sum.SavedPrefillTokens, r.match)
	}

	if tracer != nil {
		if reg != nil {
			reg.Add(tracer.Table())
		}
		writeTrace(*traceOut, tracer)
	}
	if reg != nil {
		writeMetrics(*metricsTo, reg)
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

func mustCreate(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return f
}

func writeTrace(path string, tracer *obs.Tracer) {
	f := mustCreate(path)
	err := obs.WriteChromeTraceFrom(f, tracer)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped) -> %s\n",
		tracer.Len(), tracer.Dropped(), path)
}

func writeMetrics(path string, reg *obs.Registry) {
	w := os.Stdout
	if path != "-" {
		w = mustCreate(path)
		defer w.Close()
	}
	if err := reg.WriteText(w); err != nil {
		fmt.Fprintln(os.Stderr, "metrics:", err)
		os.Exit(1)
	}
}

func budgetStr(b int64) string {
	if b <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d slots", b)
}

func buildRequests(load []workload.QARequest, spec methodSpec, budget int) []serve.Request {
	reqs := make([]serve.Request, len(load))
	for i, q := range load {
		reqs[i] = serve.Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
		}
		if spec.sel != nil {
			reqs[i].Budget = budget
			reqs[i].NewSelector = spec.sel
		}
	}
	return reqs
}

// runSerial is the status-quo replayer: one request at a time through the
// plain Sequence API, full prefill per request, greedy decode.
func runSerial(m *model.Model, reqs []serve.Request) [][]int {
	out := make([][]int, len(reqs))
	logits := make([]float32, m.Config().VocabSize)
	for i, req := range reqs {
		var sel attention.Selector
		if req.NewSelector != nil {
			sel = req.NewSelector()
		}
		seq := m.NewSequence(sel, req.Budget)
		seq.Prefill(req.Prompt, nil)
		tok := req.Prompt[len(req.Prompt)-1]
		toks := make([]int, 0, req.MaxNewTokens)
		for j := 0; j < req.MaxNewTokens; j++ {
			seq.DecodeInto(tok, logits)
			tok = tensor.ArgMax(logits)
			toks = append(toks, tok)
		}
		out[i] = toks
	}
	return out
}

// dispatch submits the load: closed loop as one deterministic Router.Run,
// open loop through Router.Submit with seeded Poisson gaps between requests.
// Each ticket is waited as soon as its request completes, so the router
// settles its booking then and later arrivals are placed against the work
// still outstanding, not the whole run's.
func dispatch(r *fleet.Router, reqs []serve.Request, rate float64, seed uint64) []fleet.Response {
	if rate <= 0 {
		return r.Run(reqs)
	}
	out := make([]fleet.Response, len(reqs))
	var wg sync.WaitGroup
	for i, a := range workload.PoissonArrivals(seed, len(reqs), rate) {
		time.Sleep(time.Duration(a.Gap * float64(time.Second)))
		tk := r.Submit(reqs[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = tk.Wait()
		}()
	}
	wg.Wait()
	return out
}
