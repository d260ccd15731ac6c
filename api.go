package ivm

// This file is the public facade of the library: the analytic verdict
// on a pair of access streams, the simulator's exact steady-state
// bandwidth and the paper-style timeline. The rest of the model (the
// X-MP triad, the figure reproductions, the sweep engine and its
// observability) lives in the internal/ packages, which the commands
// under cmd/ and the examples under examples/ import directly.

import (
	"ivm/internal/core"
	"ivm/internal/memsys"
	"ivm/internal/rat"
	"ivm/internal/trace"
)

// Rational is an exact fraction; effective bandwidths are reported in
// this form (3/2 means exactly 3/2).
type Rational = rat.Rational

// Analysis is the analytic verdict on a pair of access streams: the
// conflict regime, the predicted b_eff and a note naming the theorem
// behind it.
type Analysis = core.Analysis

// Analyze classifies two infinite access streams with distances d1, d2
// on an m-way interleaved memory with bank busy time nc (s = m; stream
// 1 holds the fixed priority).
func Analyze(m, nc, d1, d2 int) Analysis { return core.Analyze(m, nc, d1, d2) }

// ReturnNumber is Theorem 1: r = m / gcd(m, d).
func ReturnNumber(m, d int) int { return core.ReturnNumber(m, d) }

// SingleStreamBandwidth is the one-stream law b_eff = min(1, r/nc).
func SingleStreamBandwidth(m, nc, d int) Rational {
	return core.SingleStreamBandwidth(m, nc, d)
}

// MemConfig configures a simulated memory system (banks, sections,
// bank busy time, CPUs, priority rule, section mapping).
type MemConfig = memsys.Config

// StreamSpec names an infinite bank-space stream (start, distance, CPU).
type StreamSpec = memsys.StreamSpec

// SteadyBandwidth builds a system from stream specs, detects the cyclic
// state and returns its exact b_eff.
func SteadyBandwidth(cfg MemConfig, maxClocks int64, specs ...StreamSpec) (Rational, error) {
	return memsys.SteadyBandwidth(cfg, maxClocks, specs...)
}

// Timeline runs the specs for the given clocks and renders the
// paper-style bank × clock diagram.
func Timeline(cfg MemConfig, clocks int64, specs ...StreamSpec) string {
	sys := memsys.New(cfg)
	rec := trace.Attach(sys, len(specs)*int(clocks))
	for i, sp := range specs {
		label := sp.Label
		if label == "" {
			label = string(rune('1' + i%9))
		}
		sys.AddPort(sp.CPU, label, memsys.NewInfiniteStrided(int64(sp.Start), int64(sp.Distance)))
	}
	sys.Run(clocks)
	if s := cfg.Sections; s != 0 && s != cfg.Banks {
		return rec.RenderWithSections(clocks, sys.Section)
	}
	return rec.Render(clocks)
}
