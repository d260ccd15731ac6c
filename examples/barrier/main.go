// Barrier: construct a barrier-situation (Theorems 4-7), visualise it
// in the paper's timeline style, and check Eq. 29's bandwidth — then
// show the inverted barrier that a different start bank produces.
//
//	go run ./examples/barrier
package main

import (
	"fmt"

	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/trace"
)

func run(m, nc, b1, d1, b2, d2 int) {
	sys := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
	rec := trace.Attach(sys, 2*36) // two ports, one event each per clock
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(int64(b1), int64(d1)))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
	sys.Run(36)
	fmt.Print(rec.Render(36))

	sys2 := memsys.New(memsys.Config{Banks: m, BankBusy: nc, CPUs: 2})
	sys2.AddPort(0, "1", memsys.NewInfiniteStrided(int64(b1), int64(d1)))
	sys2.AddPort(1, "2", memsys.NewInfiniteStrided(int64(b2), int64(d2)))
	cyc, err := sys2.FindCycle(1 << 20)
	if err != nil {
		panic(err)
	}
	fmt.Printf("b_eff = %s; per-stream %s and %s; delays %d/%d\n\n",
		cyc.EffectiveBandwidth(), cyc.PortBandwidth(0), cyc.PortBandwidth(1),
		cyc.Conflicts[0].Delays(), cyc.Conflicts[1].Delays())
}

func main() {
	// Fig. 5: m=13, nc=4, d1=1, d2=3, b2=7 — stream 2 barriered.
	const m, nc, d1, d2 = 13, 4, 1, 3
	a := core.Analyze(m, nc, d1, d2)
	fmt.Println("analysis:", a)
	fmt.Printf("Eq. 29 predicts b_eff = %s when the barrier is entered\n\n", core.BarrierBandwidth(d1, d2))

	fmt.Println("barrier-situation (b2 = 7, Fig. 5):")
	run(m, nc, 0, d1, 7, d2)

	fmt.Println("inverted barrier (b2 = 1, Fig. 6): stream 2 now delays stream 1:")
	run(m, nc, 0, d1, 1, d2)
}
