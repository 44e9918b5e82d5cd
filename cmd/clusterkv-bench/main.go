// Command clusterkv-bench regenerates the paper's tables and figures
// (DESIGN.md §3 lists the experiment ids). Examples:
//
//	clusterkv-bench -exp all                  # every experiment, quick scale
//	clusterkv-bench -exp fig11a -ctx 32768    # paper-scale recall experiment
//	clusterkv-bench -exp tab1 -markdown       # Table I as markdown
//	clusterkv-bench -exp fleet -json bench/   # + machine-readable BENCH_fleet.json
//	clusterkv-bench -exp fleet -compare .     # regression-gate against ./BENCH_fleet.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"clusterkv/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(bench.RegistryOrder(), ", ")+") or all")
		ctx        = flag.Int("ctx", 8192, "max context length for trace experiments")
		modelCtx   = flag.Int("modelctx", 4096, "max context length for transformer-engine experiments")
		seed       = flag.Uint64("seed", 1, "master seed")
		markdown   = flag.Bool("markdown", false, "emit markdown tables")
		jsonDir    = flag.String("json", "", "also write a schema-versioned BENCH_<exp>.json snapshot per experiment into this directory")
		compareDir = flag.String("compare", "", "diff each experiment against the baseline BENCH_<exp>.json in this directory and exit nonzero when a tracked metric changes or is missing")
	)
	flag.Parse()

	opt := bench.Options{MaxCtx: *ctx, ModelCtx: *modelCtx, Seed: *seed}

	commit := ""
	if *jsonDir != "" {
		commit = gitCommit()
	}

	runners := bench.Registry()
	var ids []string
	if *exp == "all" {
		ids = bench.RegistryOrder()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	gateFailed := false
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(bench.RegistryOrder(), ", "))
			os.Exit(2)
		}
		start := time.Now()
		reports := run(opt)
		for _, rep := range reports {
			if *markdown {
				fmt.Print(rep.Markdown())
			} else {
				fmt.Print(rep.String())
			}
			fmt.Println()
		}
		if *jsonDir != "" {
			path, err := bench.WriteSnapshot(*jsonDir, bench.NewSnapshot(id, commit, opt, reports))
			if err != nil {
				fmt.Fprintf(os.Stderr, "snapshot %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "[%s snapshot -> %s]\n", id, path)
		}
		if *compareDir != "" {
			basePath := filepath.Join(*compareDir, fmt.Sprintf("BENCH_%s.json", id))
			baseline, err := bench.ReadSnapshot(basePath)
			switch {
			case os.IsNotExist(err):
				fmt.Fprintf(os.Stderr, "[%s: no baseline at %s, skipping compare]\n", id, basePath)
			case err != nil:
				fmt.Fprintf(os.Stderr, "baseline %s: %v\n", basePath, err)
				os.Exit(1)
			default:
				res, err := bench.Compare(baseline, bench.NewSnapshot(id, commit, opt, reports))
				if err != nil {
					fmt.Fprintf(os.Stderr, "compare %s: %v\n", id, err)
					os.Exit(1)
				}
				res.WriteTable(os.Stdout)
				fmt.Println()
				if !res.OK() {
					gateFailed = true
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	if gateFailed {
		fmt.Fprintln(os.Stderr, "bench compare: a tracked metric changed or is missing")
		os.Exit(1)
	}
}

// gitCommit best-effort resolves the working tree's commit for snapshot
// provenance; "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
