package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestShapeFlagsMustBePositive runs main in a child process: a load, engine
// or fleet dimension below 1 exits 2 with one line naming the flag, and 1 is
// accepted.
func TestShapeFlagsMustBePositive(t *testing.T) {
	if args, ok := os.LookupEnv("CLUSTERKV_FLEET_ARGS"); ok {
		os.Args = append([]string{"clusterkv-fleet"}, strings.Fields(args)...)
		main()
		return
	}
	// A small run, so a value the check let through still finishes fast.
	const small = "-method fullkv -requests 1 -docs 1 -doclen 64 -qlen 4 -newtokens 1 -streams 1 -replicas 1 "
	for _, tc := range []struct{ args, flag string }{
		{"-replicas 0", "-replicas"},
		{"-streams -1", "-streams"},
		{"-requests 0", "-requests"},
		{"-docs 0", "-docs"},
		{"-doclen 0", "-doclen"},
		{"-qlen 0", "-qlen"},
		{"-newtokens 0", "-newtokens"},
		{"-replicas 1", ""},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestShapeFlagsMustBePositive$")
		cmd.Env = append(os.Environ(), "CLUSTERKV_FLEET_ARGS="+small+tc.args)
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
