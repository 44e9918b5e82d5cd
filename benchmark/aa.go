package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA runs every workload 2k times with this very binary, untraced, each
// run on another seed, labelling the runs A and B in turn. Both labels are
// the same code, so whatever separates their medians is the benchmark's own
// noise: the table it prints is what BENCHMARK.json's bounds are computed
// from (README.md, "Bounds").
func runAA(k, seconds int, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| workload | metric | median A | median B | deviation | spread of all %d | bound by the rule |\n", 2*k)
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
	for _, s := range specs(fullSizes) {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			cmd := exec.Command(self, "-workload", s.name, "-seed", strconv.Itoa(i+1),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", s.name, i+1, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line reportLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s seed %d: %w", s.name, i+1, err)
			}
			if !line.Correct {
				return fmt.Errorf("%s seed %d: outputs incorrect (%d of %d failed)", s.name, i+1, line.Failed, line.Attempted)
			}
			for name, mv := range line.Metrics {
				sets[i%2][name] = append(sets[i%2][name], mv.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			all := append(append([]float64(nil), a...), b...)
			dev, spread := math.Abs(ratio(median(b), median(a))-1), quartileSpread(all)
			fmt.Fprintf(w, "| %s | %s | %.5g | %.5g | %.2f%% | %.2f%% | %.2f |\n",
				s.name, d.name, median(a), median(b), 100*dev, 100*spread, ruleBound(dev, spread))
		}
	}
	return nil
}

// ruleBound is the bound one row of the table asks for: twice the deviation
// between the two labels, or the spread of all runs with a quarter on top
// (the driver rejects a spread above the bound), at least 0.05, rounded up
// to the next 0.05 and capped at the contract's 0.25. A metric's bound in
// BENCHMARK.json is the largest its rows ask for over every table taken.
func ruleBound(dev, spread float64) float64 {
	b := max(0.05, 2*dev, 1.25*spread)
	return min(math.Ceil(b/0.05-1e-9)*0.05, 0.25)
}
