package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildFigures compiles this command into a temporary directory, so the
// tests observe real exit codes and stderr.
func buildFigures(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build the command")
	}
	bin := filepath.Join(t.TempDir(), "figures")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestUnknownFigureExit2: an unregistered -fig name is refused before
// any figure runs — exit status 2, nothing on stdout, and one stderr
// line that lists the valid names — where it used to exit 0 silently.
func TestUnknownFigureExit2(t *testing.T) {
	bin := buildFigures(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-fig", "bogus")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("want exit status 2, got %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.String())
	}
	line := stderr.String()
	if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") || !strings.Contains(line, `"bogus"`) {
		t.Fatalf("want one stderr line naming the bad value, got:\n%s", line)
	}
	for _, name := range []string{"all", "2", "10", "three-tier", "admission"} {
		if !strings.Contains(line, name) {
			t.Errorf("stderr line does not list %q: %s", name, line)
		}
	}

	// A registered name still runs (tail is analytic and instant).
	out, err := exec.Command(bin, "-fig", "tail").Output()
	if err != nil || !strings.Contains(string(out), "Figure/Table tail") {
		t.Errorf("-fig tail: err %v, output:\n%s", err, out)
	}
}

// TestBadFlagsExit2: a -duration that cannot run a sweep, or a negative
// -workers, is refused before any figure runs — exit status 2, nothing
// on stdout, one stderr line naming the flag — where -duration -5 used
// to run and exit 0.
func TestBadFlagsExit2(t *testing.T) {
	bin := buildFigures(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "2", "-duration", "-5"}, "-duration"},
		{[]string{"-fig", "2", "-duration", "0"}, "-duration"},
		{[]string{"-fig", "3", "-duration", "NaN"}, "-duration"},
		{[]string{"-fig", "3", "-duration", "Inf"}, "-duration"},
		{[]string{"-fig", "3", "-workers", "-1"}, "-workers"},
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
		if strings.Count(line, "\n") != 1 || !strings.HasPrefix(line, "figures: ") || !strings.Contains(line, tc.want) {
			t.Errorf("%s: want one stderr line naming %s, got:\n%s", name, tc.want, line)
		}
	}
}
