// Command clusterkv-serve drives the continuous-batching serving engine
// with a synthetic multi-tenant QA load (many questions over shared long
// documents) and prints a throughput/latency report comparing compression
// methods under identical load, plus the engine against serial
// one-at-a-time decode of the same request set.
//
//	clusterkv-serve                      # default: 8 streams, 16 requests
//	clusterkv-serve -streams 8 -requests 32 -doclen 2048
//	clusterkv-serve -rate 4              # open-loop Poisson arrivals, 4 req/s
//	clusterkv-serve -method clusterkv    # single method
//	clusterkv-serve -trace out.json      # Chrome trace_event timeline (Perfetto)
//	clusterkv-serve -metrics -           # text metrics exposition on stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"clusterkv"
)

type methodSpec struct {
	name string
	sel  func() clusterkv.Selector // nil factory = full attention
}

func methods(which string) []methodSpec {
	all := []methodSpec{
		{"ClusterKV", func() clusterkv.Selector { return clusterkv.New(clusterkv.DefaultConfig()) }},
		{"Quest", func() clusterkv.Selector { return clusterkv.NewQuest(clusterkv.DefaultQuestConfig()) }},
		{"FullKV", nil},
	}
	if which == "all" {
		return all
	}
	var out []methodSpec
	for _, w := range strings.Split(which, ",") {
		w = strings.TrimSpace(strings.ToLower(w))
		for _, m := range all {
			if strings.ToLower(m.name) == w {
				out = append(out, m)
			}
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "unknown -method %q (clusterkv, quest, fullkv, all)\n", which)
		os.Exit(2)
	}
	return out
}

func main() {
	var (
		streams   = flag.Int("streams", 8, "concurrent decode streams (continuous-batching batch size)")
		workers   = flag.Int("workers", 0, "per-round decode step fan-out (0 = GOMAXPROCS); steps run on the shared intra-op pool, so effective concurrency is min(workers, intraop)")
		intraOp   = flag.Int("intraop", 0, "shared worker pool width for kernels AND step fan-out (0 = GOMAXPROCS); outputs are width-independent, -intraop 1 serializes everything")
		requests  = flag.Int("requests", 16, "total requests in the load")
		docs      = flag.Int("docs", 2, "shared documents tenants ask about")
		docLen    = flag.Int("doclen", 1024, "document length (tokens)")
		qLen      = flag.Int("qlen", 32, "question suffix length (tokens)")
		newTok    = flag.Int("newtokens", 24, "tokens generated per request")
		budget    = flag.Int("budget", 256, "per-head KV budget for compressed methods")
		kvBudget  = flag.Int64("kvbudget", 0, "device KV budget in per-head token slots (0 = unlimited), metered in exact arena pages")
		hostBud   = flag.Int64("hostbudget", 0, "host-tier KV budget in per-head token slots (0 = single-tier); with -kvbudget set, admission gates on device+host and cold pages spill host-ward between rounds")
		decodeKVQ = flag.Int("decodekvbits", 0, "int8-style quantized KV decode bit width (2..8, 0 = exact float path); quantized runs are deterministic per seed but not token-identical to serial, so -verify is disabled")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		attrOn    = flag.Bool("attr", false, "per-request latency attribution: per-phase breakdown table on the modeled clock (DESIGN.md §14); adds a span lane per request to -trace and clusterkv_attr_* series to -metrics")
		seed      = flag.Uint64("seed", 1, "master seed")
		method    = flag.String("method", "all", "methods to serve (clusterkv, quest, fullkv, all)")
		loadKind  = flag.String("load", "qa", "workload shape: qa (shared-doc questions), chat (multi-turn sessions), agentic (re-entry loops), rag (templated retrieval); non-qa loads ignore -requests/-docs/-doclen/-qlen")
		noPrefix  = flag.Bool("noprefixcache", false, "declare no shared prefixes (every request prefills its whole prompt)")
		noSerial  = flag.Bool("noserial", false, "skip the serial one-at-a-time baseline")
		verifyOut = flag.Bool("verify", true, "check engine outputs match serial decode token-for-token")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run (load in chrome://tracing or Perfetto); with -method all each method gets its own process lane")
		metricsTo = flag.String("metrics", "", "write text metrics exposition to this file after the run (\"-\" = stdout); one series set per method, labeled method=<name>")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *decodeKVQ != 0 && *verifyOut {
		// The quantized decode path trades token identity with the exact
		// serial baseline for compute density (bounded-ULP contract).
		fmt.Println("note: -decodekvbits disables -verify (quantized decode is not token-identical to the serial float baseline)")
		*verifyOut = false
	}

	if *intraOp > 0 {
		clusterkv.SetIntraOpWorkers(*intraOp)
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
	var tracer *clusterkv.Tracer
	if *traceOut != "" {
		tracer = clusterkv.NewTracer(0)
	}
	var reg *clusterkv.MetricsRegistry
	if *metricsTo != "" {
		reg = clusterkv.NewMetricsRegistry()
	}

	var load []clusterkv.QARequest
	var loadDesc string
	switch strings.ToLower(*loadKind) {
	case "qa":
		lc := clusterkv.DefaultLoadConfig()
		lc.Doc.Seed = *seed
		lc.NDocs = *docs
		lc.DocLen = *docLen
		lc.NRequests = *requests
		lc.QuestionLen = *qLen
		lc.MaxNewTokens = *newTok
		lc.RatePerSec = *rate
		load = clusterkv.NewLoad(lc)
		loadDesc = fmt.Sprintf("%d requests over %d shared docs (%d+%d prompt tokens, %d generated each)",
			*requests, *docs, *docLen, *qLen, *newTok)
	case "chat":
		cc := clusterkv.DefaultConversationConfig()
		cc.Doc.Seed = *seed
		cc.MaxNewTokens = *newTok
		load = clusterkv.ConversationLoad(cc)
		loadDesc = fmt.Sprintf("%d chat requests (%d sessions x %d turns, nested histories, %d generated each)",
			len(load), cc.Sessions, cc.Turns, *newTok)
	case "agentic":
		ac := clusterkv.DefaultAgenticConfig()
		ac.Doc.Seed = *seed
		ac.MaxNewTokens = *newTok
		load = clusterkv.AgenticLoad(ac)
		loadDesc = fmt.Sprintf("%d agentic requests (%d agents x %d steps, re-entrant contexts, %d generated each)",
			len(load), ac.Agents, ac.Steps, *newTok)
	case "rag":
		rc := clusterkv.DefaultRAGConfig()
		rc.Doc.Seed = *seed
		rc.MaxNewTokens = *newTok
		load = clusterkv.RAGLoad(rc)
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

	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	fmt.Printf("load: %s\n", loadDesc)
	if *rate > 0 {
		fmt.Printf("arrivals: open-loop Poisson at %.2f req/s\n", *rate)
	} else {
		fmt.Printf("arrivals: closed loop (all requests queued up front)\n")
	}
	admission := fmt.Sprintf("exact pages (%d-token pages)", clusterkv.DefaultKVPageTokens)
	if *hostBud > 0 && *kvBudget > 0 {
		admission = fmt.Sprintf("two-tier exact pages (device %d + host %d slots/head)", *kvBudget, *hostBud)
	}
	prefixCache := "radix"
	if *noPrefix {
		prefixCache = "off"
	}
	fmt.Printf("engine: %d streams, %d workers, intra-op pool %d, prefix cache %s, global KV budget %v, admission %s\n\n",
		*streams, effWorkers(*workers), clusterkv.IntraOpPool().Width(), prefixCache, budgetStr(*kvBudget), admission)

	type row struct {
		name                   string
		serialTokS, engineTokS float64
		speedup                float64
		ttftP50, ttftP95       float64
		tokP50                 float64
		prefillSaved           int64
		match                  string
	}
	var rows []row

	for mi, spec := range methods(*method) {
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

		cfg := clusterkv.DefaultEngineConfig()
		cfg.MaxBatch = *streams
		if *workers > 0 {
			cfg.Workers = *workers
		}
		cfg.KVBudget = *kvBudget
		cfg.HostBudget = *hostBud
		cfg.DecodeKVBits = *decodeKVQ
		cfg.Seed = *seed
		cfg.Trace = tracer.Recorder(mi) // nil tracer -> disabled recorder
		cfg.Attribution = *attrOn
		eng := clusterkv.NewEngine(m, cfg)
		resps := dispatch(eng, reqs, load, *rate)
		eng.Close() // drain before the snapshot
		mx := eng.Metrics()
		arenaPeak := eng.Arena().PeakPages()
		var attrSnap *clusterkv.AttributionSnapshot
		if a := eng.Attribution(); a != nil {
			s := a.Snapshot()
			attrSnap = &s
		}
		if reg != nil {
			ml := clusterkv.ML("method", strings.ToLower(spec.name))
			eng.FillRegistry(reg, ml)
			if attrSnap != nil {
				attrSnap.FillRegistry(reg, ml)
			}
		}

		failed, compared := 0, 0
		match := "n/a"
		for i, r := range resps {
			if r.Err != nil {
				failed++
				continue
			}
			if *verifyOut && serialOut != nil {
				compared++
				if !equalTokens(r.Tokens, serialOut[i]) {
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

		naivePrefill := int64(0)
		if mx.Completed > 0 {
			for _, q := range load {
				naivePrefill += int64(len(q.Prompt))
			}
		}
		r := row{
			name:         spec.name,
			engineTokS:   mx.Throughput(),
			ttftP50:      mx.TTFT.P50 * 1e3,
			ttftP95:      mx.TTFT.P95 * 1e3,
			tokP50:       mx.TokenLatency.P50 * 1e3,
			prefillSaved: naivePrefill - mx.PrefillTokens,
			match:        match,
		}
		if serialSecs > 0 {
			r.serialTokS = float64(serialTok) / serialSecs
			if r.engineTokS > 0 {
				r.speedup = r.engineTokS / r.serialTokS
			}
		}
		rows = append(rows, r)

		fmt.Printf("== %s ==\n%s", spec.name, mx.String())
		fmt.Printf("kv arena: peak %d live pages (%d tokens/page, shared prefix pages counted once)\n",
			arenaPeak, clusterkv.DefaultKVPageTokens)
		if *hostBud > 0 {
			fmt.Printf("host tier: %d slots resident (peak %d of %d), %d slots spilled, device peak %d of %d\n",
				mx.KVHostUsed, mx.KVHostPeak, mx.KVHostCapacity, mx.KVSpilled, mx.KVDevicePeak, mx.KVCapacity)
		}
		if tr := mx.Transfer; tr.PrefetchedPages > 0 {
			fmt.Printf("prefetch: %.0f%% hit rate (%d of %d pages claimed by fetches, %d dropped), %.0f%% of transfer time hidden\n",
				tr.PrefetchHitRate()*100, tr.PrefetchHits, tr.PrefetchedPages, tr.PrefetchDropped,
				tr.HiddenFrac()*100)
		}
		if serialSecs > 0 {
			fmt.Printf("serial baseline: %.1f tok/s (one request at a time, full per-request prefill)\n", r.serialTokS)
			fmt.Printf("engine speedup:  %.2fx aggregate tokens/sec over serial decode\n", r.speedup)
		}
		if attrSnap != nil {
			attrSnap.WriteTable(os.Stdout)
		}
		fmt.Println()
	}

	// Summary table.
	fmt.Printf("%-10s %12s %12s %9s %10s %10s %10s %14s %6s\n",
		"method", "serial tok/s", "engine tok/s", "speedup", "ttft p50", "ttft p95", "tok p50", "prefill saved", "match")
	for _, r := range rows {
		serial := "-"
		speedup := "-"
		if r.serialTokS > 0 {
			serial = fmt.Sprintf("%.1f", r.serialTokS)
			speedup = fmt.Sprintf("%.2fx", r.speedup)
		}
		fmt.Printf("%-10s %12s %12.1f %9s %8.1fms %8.1fms %8.2fms %14d %6s\n",
			r.name, serial, r.engineTokS, speedup, r.ttftP50, r.ttftP95, r.tokP50, r.prefillSaved, r.match)
	}

	if tracer != nil {
		if reg != nil {
			tracer.FillRegistry(reg)
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

func writeTrace(path string, tracer *clusterkv.Tracer) {
	f := mustCreate(path)
	err := clusterkv.WriteChromeTraceFrom(f, tracer)
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

func writeMetrics(path string, reg *clusterkv.MetricsRegistry) {
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

func effWorkers(w int) int {
	if w > 0 {
		return w
	}
	return clusterkv.DefaultEngineConfig().Workers
}

func budgetStr(b int64) string {
	if b <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d slots", b)
}

func buildRequests(load []clusterkv.QARequest, spec methodSpec, budget int) []clusterkv.ServeRequest {
	reqs := make([]clusterkv.ServeRequest, len(load))
	for i, q := range load {
		reqs[i] = clusterkv.ServeRequest{
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
func runSerial(m *clusterkv.Model, reqs []clusterkv.ServeRequest) [][]int {
	out := make([][]int, len(reqs))
	logits := make([]float32, m.Config().VocabSize)
	for i, req := range reqs {
		var sel clusterkv.Selector
		if req.NewSelector != nil {
			sel = req.NewSelector()
		}
		seq := m.NewSequence(sel, req.Budget)
		seq.Prefill(req.Prompt, nil)
		tok := req.Prompt[len(req.Prompt)-1]
		toks := make([]int, 0, req.MaxNewTokens)
		for j := 0; j < req.MaxNewTokens; j++ {
			seq.DecodeInto(tok, logits)
			tok = argmax(logits)
			toks = append(toks, tok)
		}
		out[i] = toks
	}
	return out
}

// dispatch submits the load: closed-loop as one deterministic batch,
// open-loop with Poisson gaps between Submits.
func dispatch(eng *clusterkv.Engine, reqs []clusterkv.ServeRequest, load []clusterkv.QARequest, rate float64) []clusterkv.ServeResponse {
	if rate <= 0 {
		return eng.Run(reqs)
	}
	tickets := make([]*clusterkv.ServeTicket, len(reqs))
	for i, req := range reqs {
		time.Sleep(time.Duration(load[i].Gap * float64(time.Second)))
		tickets[i] = eng.Submit(req)
	}
	out := make([]clusterkv.ServeResponse, len(tickets))
	for i, tk := range tickets {
		out[i] = tk.Wait()
	}
	return out
}

func equalTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
