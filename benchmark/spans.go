package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the process's trace epoch. Parent is the id of the span that caused this
// one (-1 for an episode), Request the slot of the request it belongs to
// (-1 for an episode).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (requests of one batch run concurrently) and may stick out of the parent
// by clock skew; the cover is the union of the children clipped to the
// parent, so self time is never negative and self + cover = duration.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	children := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for id, s := range byID {
		out[id] = (s.End - s.Start) - cover(children[id], s.Start, s.End)
	}
	return out
}

// cover is the length of the union of the spans' intervals inside [lo, hi].
func cover(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeSpans writes the spans as a JSON array, one span per line.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		buf.Write(line)
		if i < len(spans)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
