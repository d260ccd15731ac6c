// Package ivm reproduces Oed & Lange, "On the Effective Bandwidth of
// Interleaved Memories in Vector Processor Systems", IEEE Transactions
// on Computers C-34(10), 1985.
//
// The package itself is a small facade over the analytic model and the
// simulator: Analyze classifies a pair of access streams, SteadyBandwidth
// measures the exact cyclic-state bandwidth and Timeline renders the
// paper-style bank × clock diagram. The rest of the reproduction lives
// in internal packages:
//
//   - internal/core — the paper's analytic model (Theorems 1–9,
//     Eqs. 29–32) and a conflict-regime classifier;
//   - internal/memsys — a cycle-accurate simulator of the banked,
//     sectioned memory system with the paper's conflict taxonomy;
//   - internal/machine, internal/vector, internal/workload,
//     internal/xmp — a Cray X-MP-flavoured vector CPU model and the
//     Section IV triad experiment;
//   - internal/figures, internal/trace — executable reproductions of
//     Figures 2–9 with paper-style timeline rendering;
//   - internal/skew — the conclusion's skewing-scheme remedy;
//   - internal/sweep — the analytic-vs-simulated cross-validation
//     harness.
//
// The benchmarks in bench_test.go regenerate every figure of the
// paper's evaluation; see EXPERIMENTS.md for the paper-vs-measured
// record and DESIGN.md for the per-experiment index.
package ivm
