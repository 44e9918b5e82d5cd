// Command benchmark is the repository's wall-clock benchmark: it drives
// serve.Engine and fleet.Router through three workloads and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
// README.md in this directory says what is measured, how, and why.
//
//	go run -C benchmark . -workload longctx_decode -seed 1 -seconds 20 -trace 0
//	go run -C benchmark . -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: longctx_decode, qa_shared_batch or sessions_churn_fleet")
		seed         = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "run length; converted to an episode count per workload")
		trace        = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		episodes     = flag.Int("episodes", 0, "timed episodes, overriding -seconds (smoke runs)")
		aa           = flag.Int("aa", 0, "run every workload 2k times with labels A and B alternating and print the A/A table")
	)
	flag.Parse()
	if *aa > 0 {
		if err := runAA(*aa, *seconds, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	s, ok := specByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q\n", *workloadName)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	res, err := run(runOpts{
		spec:     s,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		episodes: *episodes,
		spanDir:  "bench-out",
		log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		microBenchmarks(res.values, microFull)
	}
	if err := report(os.Stdout, defs, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric by name with its unit, then the result as one
// JSON object on the last line.
func report(w io.Writer, defs []metricDef, res result) error {
	line := reportLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value", d.name)
		}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	fmt.Fprintf(w, "requests: %d sent, %d succeeded, %d failed\n",
		res.attempted, res.attempted-res.failed, res.failed)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
