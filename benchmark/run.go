package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/metrics"
	"clusterkv/internal/model"
	"clusterkv/internal/parallel"
	"clusterkv/internal/serve"
	"clusterkv/internal/tensor"
	"clusterkv/internal/workload"
)

const (
	// procs fixes GOMAXPROCS, the intra-op pool width and the engines' step
	// fan-out: the reference box has 2 vCPUs, and a width that followed the
	// host would make runs on different hosts different programs.
	procs = 2
	// bringUps is how many times a run sets the workload up from nothing;
	// setup_s is the median of them.
	bringUps = 3
	// warmUps is the number of untimed episodes before the timed ones.
	warmUps = 3
	// keptSpanEpisodes is how many traced episodes have their spans written.
	keptSpanEpisodes = 3
	// speedupPairs is the number of interleaved FullKV/ClusterKV episode
	// pairs behind core.speedup_vs_full.
	speedupPairs = 3
	// hardStop ends the timed section early when the process has run this
	// long: the driver kills a run at 180 s. On the reference box a run takes
	// about 30 s, so this only triggers on a machine several times slower.
	hardStop = 140 * time.Second
)

type runOpts struct {
	spec    spec
	seed    uint64
	seconds int
	traced  bool
	// episodes overrides the episode count derived from seconds (tests and
	// smoke runs); 0 derives it.
	episodes int
	// spanDir receives spans-<workload>.json in a traced run.
	spanDir string
	// log receives progress lines.
	log io.Writer
}

// result is what one run reports.
type result struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
}

// samples holds the timings of a set of episodes: walls[episode] and
// x[episode][slot], all in milliseconds.
type samples struct {
	walls            []float64
	ttft, tpot, wait [][]float64
	tokens           int
}

func (s *samples) add(resps []serve.Response, wall time.Duration) {
	n := len(resps)
	ttft, tpot, wait := make([]float64, n), make([]float64, n), make([]float64, n)
	s.tokens = 0
	for i, r := range resps {
		ttft[i] = ms(r.TTFT)
		wait[i] = ms(r.QueueWait)
		if len(r.Tokens) > 1 {
			tpot[i] = ms(r.Total-r.TTFT) / float64(len(r.Tokens)-1)
		}
		s.tokens += len(r.Tokens)
	}
	s.walls = append(s.walls, ms(wall))
	s.ttft = append(s.ttft, ttft)
	s.tpot = append(s.tpot, tpot)
	s.wait = append(s.wait, wait)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// counters accumulates the engines' own counters over the timed episodes.
type counters struct {
	rounds, batchRounds, batched, solo int64
	hits, misses, partial, evicted     int64
	prefill, reused, spilled           int64
	xfer                               metrics.Overlap
	arenaPeak                          int64
}

// add folds one engine snapshot in with the given sign: a warm engine is
// subtracted before the timed section and added after it, a fresh engine is
// only added.
func (c *counters) add(m serve.Metrics, sign int64) {
	c.rounds += sign * m.Rounds
	c.batchRounds += sign * m.BatchRounds
	c.batched += sign * m.DecodeStreamsBatched
	c.solo += sign * m.DecodeStreamsSolo
	c.hits += sign * int64(m.PrefixHits)
	c.misses += sign * int64(m.PrefixMisses)
	c.partial += sign * int64(m.PrefixPartialHits)
	c.evicted += sign * int64(m.PrefixEvicted)
	c.prefill += sign * m.PrefillTokens
	c.reused += sign * m.PrefixReusedTokens
	c.spilled += sign * m.KVSpilled
	f := float64(sign)
	c.xfer.BusySec += f * m.Transfer.BusySec
	c.xfer.ExposedSec += f * m.Transfer.ExposedSec
	c.xfer.PrefetchedPages += sign * m.Transfer.PrefetchedPages
	c.xfer.PrefetchHits += sign * m.Transfer.PrefetchHits
}

// runner carries the state of one run.
type runner struct {
	o    runOpts
	m    *model.Model
	load []workload.QARequest
	tgt  *target // the warm engine; nil between episodes of a fleet workload

	ref               [][]int // tokens of the first episode, per slot
	attempted, failed int
	probesMs          []float64
	counting          bool
	cnt               counters
	balance           float64 // fleet: max/mean requests per replica
}

func (r *runner) logf(format string, a ...any) {
	if r.o.log != nil {
		fmt.Fprintf(r.o.log, format+"\n", a...)
	}
}

// episode executes the request list once and returns the responses, when Run
// was called and the wall time around it. A fleet workload gets a fresh router, built and torn
// down outside the timed interval.
func (r *runner) episode(reqs []serve.Request) ([]serve.Response, time.Time, time.Duration) {
	fresh := r.o.spec.replicas > 0
	if fresh {
		r.tgt = r.o.spec.newTarget(r.m, r.o.seed)
	}
	r.probesMs = append(r.probesMs, ms(fmaProbe()))
	start := time.Now()
	resps := r.tgt.run(reqs)
	wall := time.Since(start)
	if fresh {
		if r.counting {
			r.harvest(+1)
		}
		r.tgt.close()
		r.tgt = nil
	}
	return resps, start, wall
}

func (r *runner) harvest(sign int64) {
	for _, e := range r.tgt.engines() {
		r.cnt.add(e.Metrics(), sign)
		if p := e.Arena().PeakPages(); sign > 0 && p > r.cnt.arenaPeak {
			r.cnt.arenaPeak = p
		}
	}
	if r.tgt.rt != nil {
		r.balance = r.tgt.rt.Summary().Balance
	}
}

// check counts the episode's requests as attempted, and as failed those that
// returned an error or whose tokens differ from the first episode's.
func (r *runner) check(resps []serve.Response) {
	if r.ref == nil {
		r.ref = make([][]int, len(resps))
		for i, resp := range resps {
			r.ref[i] = resp.Tokens
		}
	}
	for i, resp := range resps {
		r.attempted++
		if resp.Err != nil || !slices.Equal(resp.Tokens, r.ref[i]) {
			r.failed++
		}
	}
}

// run executes one benchmark run of one workload.
func run(o runOpts) (result, error) {
	began := time.Now()
	runtime.GOMAXPROCS(procs)
	parallel.SetDefaultWidth(procs)
	r := &runner{o: o}
	s := o.spec
	vals := make(map[string]float64)

	// Set-up, several times over: build the model, generate the load, start
	// the engine or fleet and execute the request list once cold, which
	// builds every prefix a later episode hits.
	var setups []float64
	for k := 0; k < bringUps; k++ {
		t0 := time.Now()
		r.m = model.New(model.DefaultConfig())
		r.load = s.load(o.seed)
		reqs := s.requests(r.load, true, nil)
		r.tgt = s.newTarget(r.m, o.seed)
		resps := r.tgt.run(reqs)
		setups = append(setups, time.Since(t0).Seconds())
		r.check(resps)
		if k < bringUps-1 || s.replicas > 0 {
			r.tgt.close()
			r.tgt = nil
		}
	}
	r.logf("set-up x%d: %.3f s each (median)", bringUps, median(setups))
	rawReqs := s.requests(r.load, true, nil)
	fullReqs := s.requests(r.load, false, nil)

	// Output checks and quality, untimed.
	fullResps, _, _ := r.episode(fullReqs)
	for _, resp := range fullResps {
		if resp.Err != nil {
			return result{}, fmt.Errorf("FullKV reference pass: %w", resp.Err)
		}
	}
	serialOK := r.serialCheck(fullResps)
	agree := agreement(r.ref, fullResps)
	recall := r.qualityPass()
	r.logf("checks: serial FullKV equal=%v, next_tok_agree=%.4f, recall_at_b=%.4f", serialOK, agree, recall)

	for i := 0; i < warmUps; i++ {
		resps, _, _ := r.episode(rawReqs)
		r.check(resps)
	}

	n := o.episodes
	if n <= 0 {
		n = s.episodes(o.seconds)
	}
	var raw, traced samples
	tr := newTraceState(len(r.load))
	r.probesMs = r.probesMs[:0]
	r.counting = true
	if r.tgt != nil {
		r.harvest(-1)
	}
	timedStart := time.Now()
	for ep := 0; ep < n; ep++ {
		if time.Since(began) > hardStop {
			r.logf("stopping after %d of %d episodes: the run has taken %v", ep, n, hardStop)
			n = ep
			break
		}
		// A traced run alternates bare and decorated episodes, so that the
		// two see the same machine and their ratio is the tracing overhead.
		if o.traced && ep%2 == 1 {
			reqs := s.requests(r.load, true, tr.wrap(len(traced.walls) < keptSpanEpisodes))
			resps, start, wall := r.episode(reqs)
			r.check(resps)
			traced.add(resps, wall)
			tr.collect(start, resps, wall)
			continue
		}
		resps, _, wall := r.episode(rawReqs)
		r.check(resps)
		raw.add(resps, wall)
	}
	timedWall := time.Since(timedStart)
	if r.tgt != nil {
		r.harvest(+1)
	}
	r.counting = false
	r.logf("timed: %d episodes in %.1f s", n, timedWall.Seconds())

	if !o.traced {
		vals["ttft_ms_p50"] = median(slotFast(raw.ttft))
		vals["tpot_ms_p50"] = median(slotFast(raw.tpot))
		vals["out_tok_s"] = ratio(float64(raw.tokens), fast(raw.walls)/1e3)
		vals["setup_s"] = median(setups)
		vals["peak_rss_mb"] = peakRSSMB()
		vals["recall_at_b"] = recall
	} else {
		vals["core.next_tok_agree"] = agree
		r.layerMetrics(vals, n, &raw, &traced, tr)
		if err := tr.write(o.spanDir, s.name); err != nil {
			return result{}, err
		}
		vals["trace.spans"] = float64(len(tr.spans))
		vals["core.speedup_vs_full"] = r.speedupVsFull(rawReqs, fullReqs)
	}
	if r.tgt != nil {
		r.tgt.close()
	}
	return result{
		correct:   r.failed == 0 && serialOK,
		attempted: r.attempted,
		failed:    r.failed,
		values:    vals,
	}, nil
}

// layerMetrics fills in the per-layer metrics that come from the episodes.
func (r *runner) layerMetrics(vals map[string]float64, n int, raw, traced *samples, tr *traceState) {
	ps := summarizeProbes(r.probesMs)
	vals["probe.fma_ms_p50"] = ps.p50
	vals["probe.fma_ms_p10"] = ps.p10
	vals["probe.slow_frac"] = ps.slowFrac

	vals["serve.queue_ms_p50"] = median(slotFast(raw.wait))
	vals["serve.ttft_ms_p90"] = quantile(flatten(raw.ttft), 0.9)
	vals["serve.tpot_ms_p90"] = quantile(flatten(raw.tpot), 0.9)
	vals["serve.samples"] = float64(len(flatten(raw.ttft)))
	vals["serve.episode_ms_p50"] = median(raw.walls)
	vals["serve.episode_iqr_frac"] = quartileSpread(raw.walls)
	vals["serve.fail_frac"] = ratio(float64(r.failed), float64(r.attempted))

	c, eps := r.cnt, float64(n)
	vals["serve.rounds"] = float64(c.rounds) / eps
	// A solo decode step is a round with a cohort of one.
	vals["serve.cohort_mean"] = ratio(float64(c.batched+c.solo), float64(c.batchRounds+c.solo))
	shared := float64(c.hits + c.misses)
	vals["serve.prefix_hit_frac"] = ratio(float64(c.hits), shared)
	vals["serve.prefix_partial_frac"] = ratio(float64(c.partial), shared)
	vals["serve.prefix_evictions"] = float64(c.evicted) / eps
	vals["serve.prefill_tokens"] = float64(c.prefill) / eps
	vals["serve.reused_tokens"] = float64(c.reused) / eps
	vals["serve.sched_self_ms"] = median(tr.schedSelfMs)

	if r.o.spec.replicas > 0 {
		// Share of shared-prefix requests that found any of their prefix on
		// the replica they were routed to.
		vals["fleet.prefix_hit_frac"] = ratio(float64(c.hits+c.partial), shared)
		vals["fleet.replica_imbalance"] = r.balance
	} else {
		vals["fleet.prefix_hit_frac"] = 0
		vals["fleet.replica_imbalance"] = 0
	}

	vals["kvcache.arena_peak_pages"] = float64(c.arenaPeak)
	vals["kvcache.spilled_slots"] = float64(c.spilled) / eps
	vals["kvcache.xfer_exposed_frac"] = ratio(c.xfer.ExposedSec, c.xfer.BusySec)
	vals["kvcache.prefetch_hit_frac"] = c.xfer.PrefetchHitRate()

	tr.metrics(vals)
	vals["trace.overhead_frac"] = ratio(fast(traced.walls), fast(raw.walls)) - 1
}

// speedupVsFull is the paper's headline on this workload: the time per
// output token with full attention over the time with ClusterKV, from
// interleaved episodes of the same requests on the same engine.
func (r *runner) speedupVsFull(rawReqs, fullReqs []serve.Request) float64 {
	var full, ckv samples
	for i := 0; i < speedupPairs; i++ {
		resps, _, wall := r.episode(fullReqs)
		full.add(resps, wall)
		resps, _, wall = r.episode(rawReqs)
		r.check(resps)
		ckv.add(resps, wall)
	}
	return ratio(median(slotFast(full.tpot)), median(slotFast(ckv.tpot)))
}

// serialCheck decodes the request with the shortest prompt serially, with
// full attention, through Sequence.DecodeInto, and compares the tokens with
// what the engine produced for the same request without a selector.
func (r *runner) serialCheck(fullResps []serve.Response) bool {
	slot := 0
	for i, q := range r.load {
		if len(q.Prompt) < len(r.load[slot].Prompt) {
			slot = i
		}
	}
	q := r.load[slot]
	seq := r.m.NewSequence(nil, 0)
	defer seq.Release()
	seq.Prefill(q.Prompt, nil)
	logits := make([]float32, r.m.Config().VocabSize)
	tok := q.Prompt[len(q.Prompt)-1]
	toks := make([]int, 0, q.MaxNewTokens)
	for i := 0; i < q.MaxNewTokens; i++ {
		seq.DecodeInto(tok, logits)
		tok = tensor.ArgMax(logits)
		toks = append(toks, tok)
	}
	return slices.Equal(toks, fullResps[slot].Tokens)
}

// agreement is the share of generated tokens that are equal, position by
// position, between the compressed run and the FullKV run of the same
// requests.
func agreement(ref [][]int, full []serve.Response) float64 {
	same, total := 0, 0
	for i, toks := range ref {
		for j, t := range toks {
			total++
			if j < len(full[i].Tokens) && full[i].Tokens[j] == t {
				same++
			}
		}
	}
	return ratio(float64(same), float64(total))
}

// qualityPass executes the request list once with a selector wrapper that
// compares every selection with the true top-B of full attention, and
// returns the mean recall.
func (r *runner) qualityPass() float64 {
	// The engine builds selectors on its workers, several requests at once:
	// each writes only its own slot.
	wrapped := make([]*recallSelector, len(r.load))
	reqs := r.o.spec.requests(r.load, true, func(slot int, inner attention.Selector) attention.Selector {
		wrapped[slot] = &recallSelector{forward: newForward(inner)}
		return wrapped[slot]
	})
	resps, _, _ := r.episode(reqs)
	r.check(resps)
	var sum float64
	var calls int64
	for _, rs := range wrapped {
		if rs != nil {
			sum += rs.sum
			calls += rs.calls
		}
	}
	return ratio(sum, float64(calls))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	// Not Linux: what the Go runtime obtained from the system is the closest
	// number available.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
