package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRecall(t *testing.T) {
	cases := []struct {
		sel, truth []int
		want       float64
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}, 1},
		{[]int{1, 2, 3}, []int{4, 5, 6}, 0},
		{[]int{1, 2}, []int{1, 3}, 0.5},
		{nil, nil, 1},
		{nil, []int{1}, 0},
	}
	for _, c := range cases {
		if got := Recall(c.sel, c.truth); got != c.want {
			t.Errorf("Recall(%v, %v) = %v, want %v", c.sel, c.truth, got, c.want)
		}
	}
}

func TestPerplexity(t *testing.T) {
	if got := Perplexity(0, 10); got != 1 {
		t.Fatalf("zero NLL ppl = %v", got)
	}
	if got := Perplexity(math.Log(4)*3, 3); math.Abs(got-4) > 1e-9 {
		t.Fatalf("ppl = %v, want 4", got)
	}
}

func TestPerplexityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Perplexity(1, 0)
}

func TestNLLFromLogits(t *testing.T) {
	// Uniform logits over 4 classes: NLL = ln 4.
	if got := NLLFromLogits([]float32{0, 0, 0, 0}, 2); math.Abs(got-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform NLL = %v", got)
	}
	// Shifting all logits by a constant must not change NLL.
	a := NLLFromLogits([]float32{1, 2, 3}, 1)
	b := NLLFromLogits([]float32{101, 102, 103}, 1)
	if math.Abs(a-b) > 1e-4 {
		t.Fatalf("NLL not shift invariant: %v vs %v", a, b)
	}
}

func TestNLLNonNegativeProperty(t *testing.T) {
	check := func(l0, l1, l2 float32, target uint8) bool {
		logits := []float32{clip(l0), clip(l1), clip(l2)}
		nll := NLLFromLogits(logits, int(target)%3)
		return nll >= -1e-6 && !math.IsNaN(nll)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func clip(v float32) float32 {
	if v > 50 {
		return 50
	}
	if v < -50 {
		return -50
	}
	if v != v {
		return 0
	}
	return v
}

func TestMeanStd(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestRatioClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-1, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp")
	}
}
