package main

import (
	"os"
	"os/exec"
	"slices"
	"strings"
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

// TestShapeFlagsMustBePositive runs main in a child process: a load or engine
// dimension below 1 exits 2 with one line naming the flag, and 1 is accepted.
func TestShapeFlagsMustBePositive(t *testing.T) {
	if args, ok := os.LookupEnv("CLUSTERKV_SERVE_ARGS"); ok {
		os.Args = append([]string{"clusterkv-serve"}, strings.Fields(args)...)
		main()
		return
	}
	// A small run, so a value the check let through still finishes fast.
	const small = "-method fullkv -noserial -requests 1 -docs 1 -doclen 64 -qlen 4 -newtokens 1 -streams 1 "
	for _, tc := range []struct{ args, flag string }{
		{"-requests 0", "-requests"},
		{"-docs 0", "-docs"},
		{"-doclen 0", "-doclen"},
		{"-qlen 0", "-qlen"},
		{"-newtokens 0", "-newtokens"},
		{"-streams -1", "-streams"},
		{"-streams 1", ""},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestShapeFlagsMustBePositive$")
		cmd.Env = append(os.Environ(), "CLUSTERKV_SERVE_ARGS="+small+tc.args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if tc.flag == "" {
			if err != nil {
				t.Errorf("%s: %v\n%s", tc.args, err, stderr.String())
			}
			continue
		}
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if code := cmd.ProcessState.ExitCode(); code != 2 || strings.Contains(msg, "\n") || !strings.HasPrefix(msg, tc.flag+" ") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and one line naming %s", tc.args, code, msg, tc.flag)
		}
	}
}
