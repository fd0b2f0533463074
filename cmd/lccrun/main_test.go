package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-exec this binary as lccrun itself, so exit codes
// are checked end to end.
func TestMain(m *testing.M) {
	if os.Getenv("LCCRUN_TEST_MAIN") == "1" {
		os.Args = append([]string{"lccrun"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownNamesExit1: a misspelled method, scheme, engine or push
// aggregation, or a worker or rank count out of bounds, is an error with
// exit code 1, not a silent fallback to a default. The dataset does not
// exist, so each must be rejected before the graph is read.
func TestUnknownNamesExit1(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for want, args := range map[string][]string{
		`unknown method "nosuch"`:    {"-dataset", "nosuch", "-method", "nosuch"},
		`unknown scheme "nosuch"`:    {"-dataset", "nosuch", "-scheme", "nosuch"},
		"workers -1 outside":         {"-dataset", "nosuch", "-workers", "-1"},
		"ranks 4097 outside":         {"-dataset", "nosuch", "-ranks", "4097"},
		`unknown engine "nosuch"`:    {"-dataset", "nosuch", "-engine", "nosuch"},
		`unknown -push-agg "nosuch"`: {"-dataset", "nosuch", "-push-agg", "nosuch"},
	} {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), "LCCRUN_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), want) {
			t.Errorf("lccrun %v: err %v, output %q; want exit 1 naming %q", args, err, out, want)
		}
	}
}
