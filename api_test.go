package ivm_test

import (
	"fmt"
	"strings"
	"testing"

	"ivm"
)

func TestFacadeAnalyze(t *testing.T) {
	a := ivm.Analyze(12, 3, 1, 7)
	if a.Regime.String() != "conflict-free" {
		t.Fatalf("regime = %s", a.Regime)
	}
	if a.Bandwidth.String() != "2" {
		t.Fatalf("bandwidth = %s", a.Bandwidth)
	}
	if ivm.ReturnNumber(16, 6) != 8 {
		t.Fatal("ReturnNumber")
	}
	if bw := ivm.SingleStreamBandwidth(16, 4, 8); bw.String() != "1/2" {
		t.Fatalf("SingleStreamBandwidth = %s", bw)
	}
}

func TestFacadeSimulation(t *testing.T) {
	bw, err := ivm.SteadyBandwidth(
		ivm.MemConfig{Banks: 13, BankBusy: 6, CPUs: 2}, 1<<20,
		ivm.StreamSpec{Start: 0, Distance: 1, CPU: 0},
		ivm.StreamSpec{Start: 0, Distance: 6, CPU: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if bw.String() != "7/6" {
		t.Fatalf("b_eff = %s", bw)
	}
}

func TestFacadeTimeline(t *testing.T) {
	out := ivm.Timeline(ivm.MemConfig{Banks: 12, BankBusy: 3, CPUs: 2}, 24,
		ivm.StreamSpec{Start: 0, Distance: 1, CPU: 0},
		ivm.StreamSpec{Start: 3, Distance: 7, CPU: 1},
	)
	if len(strings.Split(strings.TrimRight(out, "\n"), "\n")) != 12 {
		t.Fatalf("timeline:\n%s", out)
	}
	if !strings.ContainsAny(out, "12") {
		t.Fatal("timeline shows no service")
	}
}

// The README's opening question: a unit-stride loop and a stride-2
// loop on a 16-bank memory with a 4-clock bank cycle time fall into a
// unique barrier-situation, and the simulator confirms b_eff = 3/2.
func ExampleAnalyze() {
	a := ivm.Analyze(16, 4, 1, 2)
	fmt.Println(a.Regime, a.Bandwidth)

	bw, err := ivm.SteadyBandwidth(
		ivm.MemConfig{Banks: 16, BankBusy: 4, CPUs: 2}, 1<<20,
		ivm.StreamSpec{Start: 0, Distance: 1, CPU: 0},
		ivm.StreamSpec{Start: 0, Distance: 2, CPU: 1},
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(bw)
	// Output:
	// unique-barrier 3/2
	// 3/2
}
