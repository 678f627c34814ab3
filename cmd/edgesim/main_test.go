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

// TestBadRunFlagsExit2: flags that would make a run meaningless are
// refused up front with exit status 2 and one stderr line — a warm-up
// that swallows the whole run, and -grid sites or duration it used to
// replace silently with its own defaults.
func TestBadRunFlagsExit2(t *testing.T) {
	bin := buildEdgesim(t)
	for _, tc := range []struct {
		args []string
		want string // substring of the stderr line
	}{
		{[]string{"-warmup", "1000", "-duration", "100"}, "-warmup 1000 must be below -duration 100"},
		{[]string{"-warmup", "100", "-duration", "100"}, "-warmup 100 must be below -duration 100"},
		{[]string{"-topology", "edge-regional-cloud", "-warmup", "300", "-duration", "200"}, "must be below -duration"},
		{[]string{"-warmup", "-1"}, "-warmup must be finite"},
		{[]string{"-warmup", "NaN"}, "-warmup must be finite"},
		{[]string{"-grid", "6,12", "-duration", "0", "-sites", "0"}, "Sites"},
		{[]string{"-grid", "6,12", "-duration", "0"}, "Duration"},
		{[]string{"-grid", "6,12", "-duration", "Inf"}, "Duration"},
		{[]string{"-grid", "6,12", "-sites", "0"}, "Sites"},
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
		if strings.Count(line, "\n") != 1 || !strings.HasPrefix(line, "edgesim: ") || !strings.Contains(line, tc.want) {
			t.Errorf("%s: want one stderr line naming %q, got:\n%s", name, tc.want, line)
		}
	}
}

// TestVerdictRefusesEmptySamples: when the warm-up leaves no sample on
// either side, the comparison names no winner and the run exits 1,
// where it used to print "the edge wins" over two all-zero rows.
func TestVerdictRefusesEmptySamples(t *testing.T) {
	bin := buildEdgesim(t)
	cmd := exec.Command(bin, "-sites", "1", "-rate", "0.01", "-duration", "100", "-warmup", "99")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("want exit status 1, got %v", err)
	}
	text := string(out)
	if !strings.Contains(text, "verdict: none — no post-warm-up samples") {
		t.Errorf("no refusing verdict in output:\n%s", text)
	}
	if strings.Contains(text, "wins") {
		t.Errorf("a winner was named over 0 samples:\n%s", text)
	}

	// A run with samples still names one.
	out, err = exec.Command(bin, "-duration", "120").Output()
	if err != nil || !strings.Contains(string(out), "verdict: ") || strings.Contains(string(out), "verdict: none") {
		t.Errorf("-duration 120: err %v, output:\n%s", err, out)
	}
}
