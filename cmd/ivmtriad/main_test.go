package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries the flags of a re-executed test binary: when it is
// set, TestMain runs main on them instead of the tests, so flag
// handling is checked through the real exit path.
const argsEnv = "IVMTRIAD_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"ivmtriad"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs ivmtriad with args in a child process.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), out.String(), errOut.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errOut.String()
}

// A flag the triad cannot run with exits 2 before any work starts: one
// error line then the usage on stderr, nothing on stdout, no panic.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-maxinc", "-1"}, "-maxinc"},
		{[]string{"-n", "0"}, "-n wants"},
		{[]string{"-n", "-3"}, "-n wants"},
		{[]string{"-kernel", "bogus"}, `unknown kernel "bogus"`},
	} {
		code, stdout, stderr := runMain(t, c.args...)
		first, rest, _ := strings.Cut(stderr, "\n")
		if code != 2 || !strings.Contains(first, c.want) || !strings.HasPrefix(rest, "Usage of") ||
			stdout != "" || strings.Contains(stderr, "panic:") {
			t.Errorf("ivmtriad %v: exit %d, stdout %q, stderr:\n%s", c.args, code, stdout, stderr)
		}
	}
}

func TestSmallTriadRuns(t *testing.T) {
	code, stdout, stderr := runMain(t, "-n", "8", "-maxinc", "1")
	if code != 0 || !strings.Contains(stdout, "INC") || stderr != "" {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
