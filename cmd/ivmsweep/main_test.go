package main

import (
	"strings"
	"testing"

	"ivm/internal/memsys"
)

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
