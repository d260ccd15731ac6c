package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Regenerate the goldens with:
//
//	go test ./cmd/ivmsim -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

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

// Starts and distances are reduced into [0, m), negative ones too, so
// the stream table prints the distance the analytic verdict uses.
func TestParseStreamsReducesModuloM(t *testing.T) {
	for _, c := range []struct {
		in          string
		start, dist int
	}{
		{"17:18", 1, 2},
		{"0:-1,0:6", 0, 15},
		{"-17:-33", 15, 15},
	} {
		specs, err := parseStreams(c.in, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		if specs[0].Start != c.start || specs[0].Distance != c.dist {
			t.Errorf("parseStreams(%q): spec = %+v, want start %d distance %d", c.in, specs[0], c.start, c.dist)
		}
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
		{[]string{"-clocks", "9223372036854775807"}, "-clocks"},
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

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; run with -update after verifying.\ngot:\n%s", name, got)
	}
}

// TestGoldenOutputs pins ivmsim's stdout and every exported file byte
// for byte: the default run, Fig. 3's barrier with every exporter on,
// and Fig. 7's sectioned memory with the statistics and phase views.
func TestGoldenOutputs(t *testing.T) {
	dir := t.TempDir()
	files := []string{"csv-out", "csv-stream", "trace-out", "metrics-out"}
	fig3 := []string{"-m", "13", "-nc", "6", "-streams", "0:1,0:6", "-stats", "-strip", "-phase-hist"}
	for _, f := range files {
		fig3 = append(fig3, "-"+f, filepath.Join(dir, f))
	}
	for _, c := range []struct {
		name  string
		args  []string
		files []string
	}{
		{"default", nil, nil},
		{"fig3", fig3, files},
		{"fig7", []string{"-m", "12", "-s", "2", "-nc", "2", "-cpus", "1", "-streams", "0:1,2:1", "-stats", "-strip", "-phase-hist"}, nil},
	} {
		code, stdout, stderr := runMain(t, c.args...)
		if code != 0 {
			t.Fatalf("ivmsim %v: exit %d, stderr:\n%s", c.args, code, stderr)
		}
		golden(t, c.name+".stdout", []byte(stdout))
		for _, f := range c.files {
			got, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			golden(t, c.name+"."+f, got)
		}
	}
}
