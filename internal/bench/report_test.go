package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryNumberIsNamedOnce: every number cell of every registered
// experiment carries a metric name, and no metric name repeats within an
// experiment, so each printed number is exactly one gated value.
func TestEveryNumberIsNamedOnce(t *testing.T) {
	for _, id := range RegistryOrder() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seen := map[string]bool{}
			for _, rep := range Registry()[id](smallOptions()) {
				for _, row := range rep.Rows {
					for _, c := range row {
						if c.Format != "" && c.Name == "" {
							t.Fatalf("%s: unnamed number cell %q", rep.ID, c)
						}
					}
				}
				for _, m := range rep.named() {
					if seen[m.Name] {
						t.Fatalf("%s: metric name %q repeats", rep.ID, m.Name)
					}
					seen[m.Name] = true
				}
			}
		})
	}
}

// TestRendersMatchGoldens renders fig12 and cache at default Options through
// String and Markdown, as clusterkv-bench prints them, and compares the text
// byte for byte with testdata goldens, so a formatting drift fails here.
func TestRendersMatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig12 and cache at default scale")
	}
	for _, id := range []string{"fig12", "cache"} {
		reps := Registry()[id](DefaultOptions())
		for ext, render := range map[string]func(*Report) string{
			"txt": (*Report).String,
			"md":  (*Report).Markdown,
		} {
			var got strings.Builder
			for _, rep := range reps {
				got.WriteString(render(rep) + "\n")
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+"."+ext))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("%s.%s render drifted:\n got:\n%s\nwant:\n%s", id, ext, got.String(), want)
			}
		}
	}
}
