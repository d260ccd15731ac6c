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
const argsEnv = "IVMSIM_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"ivmsim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs ivmsim with args in a child process.
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

func TestParseStreams(t *testing.T) {
	specs, err := parseStreams("0:1,3:7:1", 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("len = %d", len(specs))
	}
	if specs[0].Start != 0 || specs[0].Distance != 1 || specs[0].CPU != 0 {
		t.Fatalf("spec 0 = %+v", specs[0])
	}
	if specs[1].Start != 3 || specs[1].Distance != 7 || specs[1].CPU != 1 {
		t.Fatalf("spec 1 = %+v", specs[1])
	}
}

func TestParseStreamsDefaultsCPURoundRobin(t *testing.T) {
	specs, err := parseStreams("0:1,1:1,2:1", 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].CPU != 0 || specs[1].CPU != 1 || specs[2].CPU != 0 {
		t.Fatalf("CPUs = %d,%d,%d", specs[0].CPU, specs[1].CPU, specs[2].CPU)
	}
}

func TestParseStreamsReducesModuloM(t *testing.T) {
	specs, err := parseStreams("17:18", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Start != 1 || specs[0].Distance != 2 {
		t.Fatalf("spec = %+v", specs[0])
	}
}

func TestParseStreamsErrors(t *testing.T) {
	cases := []string{
		"",        // no fields
		"1",       // missing distance
		"a:1",     // bad start
		"1:b",     // bad distance
		"1:2:x",   // bad cpu
		"1:2:5",   // cpu out of range
		"1:2:0:9", // too many fields
		"1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1", // too many streams
	}
	for _, c := range cases {
		if _, err := parseStreams(c, 16, 2); err == nil {
			t.Errorf("parseStreams(%q): expected error", c)
		}
	}
}

// A clock count the simulator cannot size exits 2 before any work
// starts: one error line then the usage on stderr, nothing on stdout,
// no panic.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-clocks", "-5"}, "-clocks"},
		{[]string{"-statsclocks", "-1", "-stats"}, "-statsclocks"},
	} {
		code, stdout, stderr := runMain(t, c.args...)
		first, rest, _ := strings.Cut(stderr, "\n")
		if code != 2 || !strings.Contains(first, c.want) || !strings.HasPrefix(rest, "Usage of") ||
			stdout != "" || strings.Contains(stderr, "panic:") {
			t.Errorf("ivmsim %v: exit %d, stdout %q, stderr:\n%s", c.args, code, stdout, stderr)
		}
	}
}
