package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
)

// Stress test for the engine over the shared intra-op worker pool:
// randomized concurrent admissions (valid, invalid and oversized requests,
// mixed tenants, shared and unshared prefixes) through Submit, TrySubmit and
// Run, racing graceful Close and deadline Shutdown. Every engine hands out
// request ids 1..Submitted exactly once: a backpressured TrySubmit consumes
// none, and a ticket from a closed engine carries id 0. Its job is to catch
// concurrency bugs such as the rope-table growth race structurally: run it
// under `go test -race`, where any unsynchronized access in the engine ↔
// pool ↔ model sandwich trips the detector. Short mode caps the iteration
// count.
func TestEngineStressRandomizedLifecycles(t *testing.T) {
	lifecycles := 12
	submittersPer := 4
	reqsPerSubmitter := 6
	if testing.Short() {
		lifecycles = 4
	}

	// Oversubscribed pool: more helpers than cores forces real interleaving
	// of intra-op blocks even on single-core CI machines.
	pool := parallel.NewPool(runtime.NumCPU() * 4)
	oldPool := parallel.SetDefault(pool)
	defer func() {
		parallel.SetDefault(oldPool)
		pool.Close()
	}()

	m := testModel()
	vocab := m.Config().VocabSize

	for lc := 0; lc < lifecycles; lc++ {
		r := rng.New(uint64(1000 + lc))
		eng := NewEngine(m, Config{
			Workers:  2 + int(r.Intn(4)),
			MaxBatch: 1 + int(r.Intn(4)),
			KVBudget: int64(256 + r.Intn(2048)),
			QueueCap: 4,
			Seed:     uint64(lc),
		})

		// Each submitter mixes the three intake paths and records what it
		// saw: ticket ids (0 on a closed engine), and per Run call how many
		// ids it consumed and which ones its responses name.
		type seen struct {
			ids, runIDs []uint64
			runN        uint64
		}
		out := make([]seen, submittersPer)
		var wg sync.WaitGroup
		for s := 0; s < submittersPer; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sr := rng.New(uint64(lc*100 + s))
				for i := 0; i < reqsPerSubmitter; i++ {
					var tk *Ticket
					switch sr.Intn(3) {
					case 0:
						tk = eng.Submit(randomRequest(sr, vocab))
					case 1:
						var ok bool
						if tk, ok = eng.TrySubmit(randomRequest(sr, vocab)); !ok {
							if tk != nil {
								t.Errorf("backpressured TrySubmit returned ticket %d", tk.ID)
							}
							continue // backpressured: no id consumed
						}
					default:
						reqs := make([]Request, 1+sr.Intn(3))
						for j := range reqs {
							reqs[j] = randomRequest(sr, vocab)
						}
						resps := eng.Run(reqs)
						if errors.Is(resps[0].Err, ErrClosed) {
							continue
						}
						out[s].runN += uint64(len(reqs))
						for _, r := range resps {
							if r.ID != 0 {
								out[s].runIDs = append(out[s].runIDs, r.ID)
							}
						}
						continue
					}
					if closed := tk.ID == 0; closed {
						if resp := tk.Wait(); !errors.Is(resp.Err, ErrClosed) {
							t.Errorf("ticket with id 0 resolved with %v, want ErrClosed", resp.Err)
						}
						continue
					}
					out[s].ids = append(out[s].ids, tk.ID)
					if sr.Intn(2) == 0 {
						tk.Wait() // closed-loop half: waits interleave with intake
					}
				}
			}(s)
		}

		// Randomize the teardown path: graceful drain, generous deadline, an
		// aggressive deadline that aborts mid-flight, or a drain racing the
		// submitters.
		switch r.Intn(4) {
		case 0:
			wg.Wait()
			eng.Close()
		case 1:
			wg.Wait()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = eng.Shutdown(ctx)
			cancel()
		case 2:
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(r.Intn(5_000_000)))
			_ = eng.Shutdown(ctx) // may abort mid-flight
			cancel()
			wg.Wait() // submitters observe aborted/closed tickets; must not hang
		default:
			eng.Close()
			wg.Wait()
		}

		// Ids are unique and, with the ones Run consumed, exactly 1..Submitted.
		mx := eng.Metrics()
		ids := map[uint64]bool{}
		consumed := uint64(0)
		for _, o := range out {
			consumed += uint64(len(o.ids)) + o.runN
			for _, id := range append(o.ids, o.runIDs...) {
				if id < 1 || id > mx.Submitted || ids[id] {
					t.Fatalf("lifecycle %d: id %d duplicated or outside 1..%d", lc, id, mx.Submitted)
				}
				ids[id] = true
			}
		}
		if consumed != mx.Submitted {
			t.Fatalf("lifecycle %d: submitters consumed %d ids, engine counted %d submitted", lc, consumed, mx.Submitted)
		}
		if mx.Completed+mx.Failed > mx.Submitted {
			t.Fatalf("lifecycle %d: %d completed + %d failed > %d submitted",
				lc, mx.Completed, mx.Failed, mx.Submitted)
		}
		if live := eng.Arena().LivePages(); live != 0 {
			t.Fatalf("lifecycle %d: %d arena pages leaked after shutdown", lc, live)
		}
	}
}

// randomRequest draws a request mixing valid prompts, shared prefixes,
// full-attention and ClusterKV tenants, and occasional invalid or oversized
// shapes (which must fail cleanly without wedging the scheduler).
func randomRequest(r *rng.RNG, vocab int) Request {
	n := 4 + int(r.Intn(96))
	prompt := make([]int, n)
	for i := range prompt {
		prompt[i] = int(r.Intn(vocab))
	}
	req := Request{
		Prompt:       prompt,
		MaxNewTokens: 1 + int(r.Intn(4)),
	}
	if pl := 16; n > pl && r.Intn(3) == 0 {
		// Content-identical shared prefix across submitters exercises the
		// builder/waiter handoff in the prefix cache.
		fixed := rng.New(4242)
		for i := 0; i < pl; i++ {
			prompt[i] = int(fixed.Intn(vocab))
		}
		req.SharedPrefixLen = pl
	}
	switch r.Intn(4) {
	case 0:
		req.NewSelector = clusterSel
		req.Budget = 32
	case 1:
		req.Temperature = 0.7
	case 2:
		// Invalid on purpose: empty generation budget.
		req.MaxNewTokens = 0
	}
	if r.Intn(8) == 0 {
		// Oversized relative to the smallest KVBudget the loop picks.
		req.Prompt = append(req.Prompt, make([]int, 4096)...)
	}
	return req
}
