package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildEdgesim compiles this command into a temporary directory, so the
// tests observe real exit codes and stderr.
func buildEdgesim(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build the command")
	}
	bin := filepath.Join(t.TempDir(), "edgesim")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestBadWorkloadFlagsExit2: generator inputs that cannot produce a
// workload are refused before anything runs — exit status 2, nothing
// on stdout, and exactly one line on stderr naming the problem —
// instead of a panic with a goroutine trace.
func TestBadWorkloadFlagsExit2(t *testing.T) {
	bin := buildEdgesim(t)
	for _, tc := range []struct {
		args []string
		want string // substring of the stderr line
	}{
		{[]string{"-rate", "-1"}, "PerSiteRate"},
		{[]string{"-rate", "NaN"}, "PerSiteRate"},
		{[]string{"-duration", "0"}, "Duration"},
		{[]string{"-sites", "0"}, "Sites"},
		{[]string{"-servers", "0"}, "PerSiteRate"},
		{[]string{"-topology", "edge-regional-cloud", "-rate", "-1"}, "PerSiteRate"},
		{[]string{"-topology", "edge-regional-cloud", "-sweep", "6,12", "-duration", "0"}, "Duration"},
	} {
		name := strings.Join(tc.args, " ")
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: want exit status 2, got %v", name, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout not empty:\n%s", name, stdout.String())
		}
		line := stderr.String()
		if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") ||
			!strings.HasPrefix(line, "edgesim: invalid workload") || !strings.Contains(line, tc.want) {
			t.Errorf("%s: want one stderr line naming %s, got:\n%s", name, tc.want, line)
		}
	}
}
