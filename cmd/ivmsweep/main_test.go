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

	"ivm/internal/memsys"
)

// argsEnv carries the flags of a re-executed test binary: when it is
// set, TestMain runs main on them instead of the tests, so whole runs
// are checked through the real output path.
const argsEnv = "IVMSWEEP_ARGS"

// Regenerate the goldens with:
//
//	go test ./cmd/ivmsweep -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"ivmsweep"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs ivmsweep with args in a child process.
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

// TestGoldenTracedPairStdout pins the whole stdout of a one-worker
// sweep with the merged statistics and the traced pair's strip chart.
func TestGoldenTracedPairStdout(t *testing.T) {
	code, stdout, stderr := runMain(t, "-m", "12", "-nc", "3", "-workers", "1", "-stats", "-strip", "-trace-pair", "1:2:0")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	path := filepath.Join("testdata", "traced-pair.stdout")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if stdout != string(want) {
		t.Errorf("stdout drifted from %s; run with -update after verifying.\ngot:\n%s", path, stdout)
	}
}

// withShape gives flags the default -m 16 -nc 4 memory shape.
func withShape(f sweepFlags) sweepFlags {
	f.m, f.nc = 16, 4
	return f
}

func TestValidateSweepFlags(t *testing.T) {
	good := []sweepFlags{
		{},              // default pair sweep
		{secs: 4},       // section sweep
		{triples: true}, // triple grid
		{triples: true, census: true},
		{streams: 2},
		{streams: 4},
		{priority: memsys.CyclicPriority},
		{priority: memsys.RoundRobinPerCPU, secs: 4},
		{secs: 4, mapping: memsys.ConsecutiveSections},
		{secs: 4, mapping: memsys.ConsecutiveSections, priority: memsys.CyclicPriority},
	}
	for _, f := range good {
		f = withShape(f)
		if w, err := validateSweepFlags(f); err != nil || w != "" {
			t.Errorf("%+v rejected: warning %q err %v", f, w, err)
		}
	}
	bad := []struct {
		f    sweepFlags
		want string
	}{
		{sweepFlags{streams: 1}, "-streams"},
		{sweepFlags{streams: -3}, "-streams"},
		{sweepFlags{census: true}, "-triple-census"},
		{sweepFlags{triples: true, secs: 4}, "pick one"},
		{sweepFlags{streams: 3, triples: true}, "pick one"},
		{sweepFlags{streams: 3, secs: 4}, "pick one"},
		{sweepFlags{mapping: memsys.ConsecutiveSections}, "-s"},
		{sweepFlags{priority: memsys.CyclicPriority, triples: true}, "pair and section families"},
		{sweepFlags{priority: memsys.RoundRobinPerCPU, streams: 3}, "pair and section families"},
		{sweepFlags{priority: memsys.CyclicPriority, analytic: true, strict: true}, "analytic gate"},
		{sweepFlags{m: 4, nc: 0}, "bank busy time 0"},
		{sweepFlags{m: 12, nc: 4, secs: 5}, "sections 5 must divide banks 12"},
		{sweepFlags{m: 0, nc: 4}, "0 banks"},
	}
	for _, c := range bad {
		_, err := validateSweepFlags(c.f)
		if err == nil {
			t.Errorf("%+v accepted", c.f)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %q does not mention %q", c.f, err, c.want)
		}
	}
}

// TestValidateSweepFlagsAnalyticWarning pins the satellite behaviour:
// -analytic with a non-fixed priority warns (the gate declines anyway)
// and only -strict promotes the warning to an error.
func TestValidateSweepFlagsAnalyticWarning(t *testing.T) {
	for _, prio := range []memsys.PriorityRule{memsys.CyclicPriority, memsys.RoundRobinPerCPU} {
		w, err := validateSweepFlags(withShape(sweepFlags{priority: prio, analytic: true}))
		if err != nil {
			t.Fatalf("priority %v: unexpected error %v", prio, err)
		}
		if !strings.Contains(w, "analytic gate does not cover") || !strings.Contains(w, prio.String()) {
			t.Fatalf("priority %v: warning %q", prio, w)
		}
	}
	if w, err := validateSweepFlags(withShape(sweepFlags{priority: memsys.FixedPriority, analytic: true})); err != nil || w != "" {
		t.Fatalf("fixed priority warned: %q, %v", w, err)
	}
}

func TestParsePairSpec(t *testing.T) {
	d1, d2, b2, err := parsePairSpec("1:2:3")
	if err != nil || d1 != 1 || d2 != 2 || b2 != 3 {
		t.Fatalf("parsePairSpec(1:2:3) = %d,%d,%d,%v", d1, d2, b2, err)
	}
	if _, _, _, err := parsePairSpec("1"); err == nil {
		t.Fatal("single field accepted")
	}
	if _, _, _, err := parsePairSpec("1:x"); err == nil {
		t.Fatal("non-numeric field accepted")
	}
}

// The traced pair is simulated under the swept policy: the same memory
// shape, CPU layout, priority rule and section mapping as the sweep,
// so its b_eff agrees with ivmsim on the same placement.
func TestTracedPairFollowsSweptPolicy(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		// ivmsim -m 8 -nc 3 -streams 0:1:0,0:6:1 -priority cyclic
		{[]string{"-m", "8", "-nc", "3", "-priority", "cyclic", "-trace-pair", "1:6:0"},
			"traced pair 1(+)6 from b2=0: b_eff=5/4 (lead 6, cycle 16)"},
		// ivmsim -m 12 -s 3 -nc 3 -cpus 1 -streams 0:1:0,3:1:0
		{[]string{"-m", "12", "-nc", "3", "-s", "3", "-trace-pair", "1:1:3"},
			"traced pair 1(+)1 from b2=3: b_eff=3/2 (lead 2, cycle 16)"},
		// ... and with -mapping consecutive
		{[]string{"-m", "12", "-nc", "3", "-s", "3", "-mapping", "consecutive", "-trace-pair", "1:1:3"},
			"traced pair 1(+)1 from b2=3: b_eff=2 (lead 10, cycle 12)"},
	} {
		args := append(c.args, "-workers", "1", "-strip")
		code, stdout, stderr := runMain(t, args...)
		if code != 0 || !strings.Contains(stdout, c.want) {
			t.Errorf("ivmsweep %v: exit %d, want %q in stdout:\n%s\nstderr:\n%s", args, code, c.want, stdout, stderr)
		}
	}
}
