package main

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when CLUSTERKV_SERVE_ARGS is set:
// the subprocess tests below re-exec the test binary with it.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CLUSTERKV_SERVE_ARGS"); ok {
		os.Args = append([]string{"clusterkv-serve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main in a child process with args and returns its stdout,
// stderr and exit code.
func runMain(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CLUSTERKV_SERVE_ARGS="+args)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s: %v", args, err)
		}
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

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

// TestShapeFlagsMustBePositive: a load, engine or fleet dimension below 1
// exits 2 with one line naming the flag, and 1 is accepted. So do a negative
// budget, rate, SLO or pool width, a host tier without a device budget, and
// -trace with more than one method, since one trace holds one fleet's lanes.
func TestShapeFlagsMustBePositive(t *testing.T) {
	// A small run, so a value the check let through still finishes fast.
	const small = "-method fullkv -noserial -requests 1 -docs 1 -doclen 64 -qlen 4 -newtokens 1 -streams 1 -replicas 1 "
	for _, tc := range []struct{ args, flag string }{
		{"-replicas 0", "-replicas"},
		{"-streams -1", "-streams"},
		{"-requests 0", "-requests"},
		{"-docs 0", "-docs"},
		{"-doclen 0", "-doclen"},
		{"-qlen 0", "-qlen"},
		{"-newtokens 0", "-newtokens"},
		{"-kvbudget -3", "-kvbudget"},
		{"-hostbudget -1", "-hostbudget"},
		{"-hostbudget 5", "-hostbudget"},
		{"-budget -5", "-budget"},
		{"-rate -1", "-rate"},
		{"-slo-ttft -1", "-slo-ttft"},
		{"-slo-tbt -0.5", "-slo-tbt"},
		{"-intraop -1", "-intraop"},
		{"-method fullkv,quest -trace " + t.TempDir() + "/t.json", "-trace"},
		{"-streams 1", ""},
		{"-kvbudget 4096 -hostbudget 4096 -budget 0 -rate 0 -slo-ttft 0 -slo-tbt 0 -intraop 0", ""},
	} {
		_, stderr, code := runMain(t, small+tc.args)
		if tc.flag == "" {
			if code != 0 {
				t.Errorf("%s: exit %d\n%s", tc.args, code, stderr)
			}
			continue
		}
		msg := strings.TrimSuffix(stderr, "\n")
		if code != 2 || strings.Contains(msg, "\n") || !strings.HasPrefix(msg, tc.flag+" ") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and one line naming %s", tc.args, code, msg, tc.flag)
		}
	}
}

// TestPrefillSavedCountsServedRequestsOnly: on a load where most requests
// fail admission, the table's "prefill saved" is the prefix-cache tokens the
// served requests actually reused, not the whole load's prompt tokens minus
// those prefilled.
func TestPrefillSavedCountsServedRequestsOnly(t *testing.T) {
	stdout, stderr, code := runMain(t, "-load chat -method fullkv -noserial -newtokens 4 -kvbudget 200")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	reused := regexp.MustCompile(`(?m)^prefix cache: [\d.]+ hit rate, .*, (\d+) tokens reused$`).FindStringSubmatch(stdout)
	row := regexp.MustCompile(`(?m)^FullKV .* (\d+) +\S+$`).FindStringSubmatch(stdout)
	if reused == nil || row == nil {
		t.Fatalf("report lacks the fleet prefix-cache line or the FullKV table row:\n%s", stdout)
	}
	if !regexp.MustCompile(`(?m)^requests: \d+ submitted, \d+ completed, 10 failed,`).MatchString(stdout) {
		t.Fatalf("load no longer fails admission, so it tests nothing:\n%s", stdout)
	}
	if row[1] != reused[1] {
		t.Fatalf("table prefill saved %s, report reused %s tokens:\n%s", row[1], reused[1], stdout)
	}
}

// TestOpenLoopServesEveryRequest: the open-loop -rate path, where each ticket
// is waited as its request completes, serves the whole load and saves the
// same prefill as the closed-loop run of that load (each of 4 documents
// prefilled once, the other 12 requests hit).
func TestOpenLoopServesEveryRequest(t *testing.T) {
	stdout, stderr, code := runMain(t, "-rate 2000 -replicas 2 -method clusterkv -docs 4 -streams 4 -noserial -doclen 256 -newtokens 8")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	// Each replica prints its own requests line; together they serve the load.
	var completed, failed int
	lines := regexp.MustCompile(`(?m)^requests: \d+ submitted, (\d+) completed, (\d+) failed`).FindAllStringSubmatch(stdout, -1)
	for _, m := range lines {
		c, _ := strconv.Atoi(m[1])
		f, _ := strconv.Atoi(m[2])
		completed, failed = completed+c, failed+f
	}
	if len(lines) != 2 || completed != 16 || failed != 0 {
		t.Fatalf("open-loop run serves %d completed, %d failed over %d replica lines, want 16, 0 over 2:\n%s",
			completed, failed, len(lines), stdout)
	}
	if want := "prefill saved: 3072 tokens, 768 pages\n"; !strings.Contains(stdout, want) {
		t.Fatalf("open-loop run does not print %q:\n%s", want, stdout)
	}
}
