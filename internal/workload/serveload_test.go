package workload

import "testing"

func TestNewLoadDeterministicAndShaped(t *testing.T) {
	cfg := DefaultLoadConfig()
	cfg.DocLen = 64
	cfg.QuestionLen = 8
	cfg.NRequests = 12

	a := NewLoad(cfg)
	b := NewLoad(cfg)
	if len(a) != 12 {
		t.Fatalf("load size %d", len(a))
	}
	docs := map[int][]int{}
	for i, r := range a {
		if len(r.Prompt) != cfg.DocLen+cfg.QuestionLen {
			t.Fatalf("request %d prompt length %d", i, len(r.Prompt))
		}
		if r.SharedPrefixLen != cfg.DocLen {
			t.Fatalf("request %d prefix length %d", i, r.SharedPrefixLen)
		}
		if r.Doc < 0 || r.Doc >= cfg.NDocs {
			t.Fatalf("request %d doc index %d", i, r.Doc)
		}
		// All requests on one document share an identical prefix.
		prefix := r.Prompt[:r.SharedPrefixLen]
		if seen, ok := docs[r.Doc]; ok {
			for j := range seen {
				if seen[j] != prefix[j] {
					t.Fatalf("doc %d prefixes differ", r.Doc)
				}
			}
		} else {
			docs[r.Doc] = prefix
		}
		// Determinism.
		if len(b[i].Prompt) != len(r.Prompt) || b[i].Doc != r.Doc {
			t.Fatalf("request %d not deterministic", i)
		}
		for j := range r.Prompt {
			if b[i].Prompt[j] != r.Prompt[j] {
				t.Fatalf("request %d prompt not deterministic", i)
			}
		}
	}
	if len(docs) < 2 {
		t.Fatal("load never used the second document")
	}
}

func TestNewLoadPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cfg := DefaultLoadConfig()
	cfg.NDocs = 0
	NewLoad(cfg)
}
