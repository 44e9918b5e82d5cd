package main

import (
	"slices"
	"testing"
)

func TestMethodsRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		which string
		want  []string // nil: an error naming the bad entry
	}{
		{"all", []string{"ClusterKV", "Quest", "FullKV"}},
		{" ALL ", []string{"ClusterKV", "Quest", "FullKV"}},
		{"clusterkv", []string{"ClusterKV"}},
		{"fullkv, Quest", []string{"FullKV", "Quest"}},
		{"clusterkv,qeust", nil},
		{"clusterkv,all", nil},
		{"bogus", nil},
		{"", nil},
	} {
		specs, err := methods(tc.which)
		if tc.want == nil {
			if err == nil {
				t.Errorf("methods(%q) = %d methods, want an error", tc.which, len(specs))
			}
			continue
		}
		if err != nil {
			t.Errorf("methods(%q): %v", tc.which, err)
			continue
		}
		var got []string
		for _, s := range specs {
			got = append(got, s.name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("methods(%q) = %v, want %v", tc.which, got, tc.want)
		}
	}
}
