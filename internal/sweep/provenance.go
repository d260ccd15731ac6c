package sweep

// Result provenance: when Options.Provenance is set, the engine
// records WHICH of its three answer routes resolved every placement —
// the theorem-driven analytic gate, the canonical-key cache, or a
// (scalar or bit-packed) simulation — together with the evidence
// behind the answer: the theorem/equation identifier when the gate
// fired, the canonical key and observed orbit population on cache
// traffic, and the cycle length plus clocks simulated on misses. The
// recorder is nil-safe like Timeline: a detached (nil) recorder costs
// the hot path nothing and allocates nothing. The aggregated view
// (ProvenanceSnapshot) is what makes large censuses explainable — it
// names the per-family path split, the theorems doing the analytic
// work, the orbit-size distribution behind each cache hit rate, and
// the top unexplained orbits whose simulations were never reused (the
// diagnosis of the stream4 family's low hit rate; see
// docs/OBSERVABILITY.md).

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"ivm/internal/textplot"
)

// Path identifies the engine route that resolved one placement.
type Path int

// The provenance paths. Every placement an engine resolves takes
// exactly one of them, which is the conservation invariant the
// attribution tests pin: analytic + cache + sim-scalar + sim-packed
// equals the placements resolved, per configuration family.
const (
	// PathAnalytic: the theorem-driven classifier gate answered without
	// simulating or touching the cache.
	PathAnalytic Path = iota
	// PathCache: the canonical-key cache held the orbit's value.
	PathCache
	// PathSimScalar: simulated on the scalar reference kernel.
	PathSimScalar
	// PathSimPacked: simulated on the bit-packed bank-busy kernel.
	PathSimPacked
	numPaths
)

var pathNames = [...]string{
	PathAnalytic:  "analytic",
	PathCache:     "cache",
	PathSimScalar: "sim-scalar",
	PathSimPacked: "sim-packed",
}

// String names the path ("analytic", "cache", "sim-scalar",
// "sim-packed").
func (p Path) String() string {
	if p < 0 || int(p) >= len(pathNames) {
		return fmt.Sprintf("path(%d)", int(p))
	}
	return pathNames[p]
}

// DefaultProvenanceOrbits bounds the per-orbit attribution table of a
// recorder built by NewProvenance(0). Path and theorem counters stay
// exact past the bound; only new per-orbit rows are dropped (and
// counted in ProvenanceSnapshot.DroppedOrbits).
const DefaultProvenanceOrbits = 1 << 18

// Provenance is a bounded recorder of per-placement result provenance.
// All methods are safe for concurrent use and are no-ops on a nil
// receiver, which is how the engine runs unrecorded — the detached
// path adds no allocations (the overhead tests pin that).
type Provenance struct {
	mu        sync.Mutex
	maxOrbits int
	fams      map[string]*famProvenance
	dropped   int64
}

// famProvenance is one family's provenance aggregation.
type famProvenance struct {
	paths    [numPaths]int64
	clocks   int64 // lead + cycle clocks across this family's simulations
	theorems map[string]int64
	orbits   map[orbitKey]*orbitProvenance
}

// orbitKey identifies one canonical orbit inside a family: the memory
// shape plus the packed canonical configuration vector (the same
// coordinates cacheKey uses, minus the CPU layout, which the family's
// shape fixes for every sweep the CLIs run).
type orbitKey struct {
	m, s, nc int
	vec      string
}

// orbitProvenance is the observed population of one canonical orbit.
type orbitProvenance struct {
	vec          []int // canonical configuration vector (d_1..d_N, b_1..b_N)
	hits, misses int64
	cycleLen     int64 // steady-state period of the last simulation
	clocks       int64 // lead + cycle clocks across re-simulations
}

// NewProvenance builds a recorder tracking at most maxOrbits distinct
// canonical orbits (0 selects DefaultProvenanceOrbits); past the
// bound, path counters stay exact and further new orbits are only
// counted as dropped.
func NewProvenance(maxOrbits int) *Provenance {
	if maxOrbits <= 0 {
		maxOrbits = DefaultProvenanceOrbits
	}
	return &Provenance{maxOrbits: maxOrbits}
}

// family returns (creating on first use) one family's aggregation.
// Callers hold p.mu.
func (p *Provenance) family(name string) *famProvenance {
	if p.fams == nil {
		p.fams = make(map[string]*famProvenance)
	}
	f := p.fams[name]
	if f == nil {
		f = &famProvenance{theorems: make(map[string]int64)}
		p.fams[name] = f
	}
	return f
}

// orbit returns the orbit row for key, nil when the recorder is at its
// orbit capacity and the key is new. Callers hold p.mu.
func (p *Provenance) orbit(f *famProvenance, key orbitKey, vec []int) *orbitProvenance {
	if f.orbits == nil {
		f.orbits = make(map[orbitKey]*orbitProvenance)
	}
	o := f.orbits[key]
	if o == nil {
		total := 0
		for _, fam := range p.fams {
			total += len(fam.orbits)
		}
		if total >= p.maxOrbits {
			p.dropped++
			return nil
		}
		o = &orbitProvenance{vec: append([]int(nil), vec...)}
		f.orbits[key] = o
	}
	return o
}

// Record records one resolved placement under its family: the path
// taken, with the theorem/equation identifier on analytic answers
// (core.PairGate.TheoremID) and the detected steady state (cycle
// length and lead+cycle clocks) on simulations. Cache hits and
// simulations also count toward the orbit row of vec, the
// configuration vector that keyed the cache or was simulated in an
// (m, s, nc) memory.
func (p *Provenance) Record(r Resolution, m, s, nc int, vec []int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	f := p.family(r.Family)
	f.paths[r.Path]++
	if r.Path == PathAnalytic {
		f.theorems[r.Theorem]++
	} else {
		f.clocks += r.Clocks // zero on cache hits
		if o := p.orbit(f, orbitKey{m, s, nc, packInts(vec)}, vec); o != nil {
			if r.Path == PathCache {
				o.hits++
			} else {
				o.misses++
				o.cycleLen = r.CycleLength
			}
			o.clocks += r.Clocks
		}
	}
	p.mu.Unlock()
}

// PathTotals returns the placements recorded per path across all
// families, indexed by Path (all zero on a nil recorder).
func (p *Provenance) PathTotals() [numPaths]int64 {
	var out [numPaths]int64
	if p == nil {
		return out
	}
	p.mu.Lock()
	for _, f := range p.fams {
		for i, n := range f.paths {
			out[i] += n
		}
	}
	p.mu.Unlock()
	return out
}

// --- Aggregated snapshot ------------------------------------------------

// OrbitInfo is the observed population of one canonical orbit in a
// provenance snapshot: how many placements canonicalised onto its key,
// split into cache hits (reused simulations) and misses (simulations
// run), with the simulation cost attached.
type OrbitInfo struct {
	// M, S, NC and Vec pin the orbit's canonical representative: the
	// memory shape and the configuration vector (d_1..d_N, b_1..b_N).
	M   int   `json:"m"`
	S   int   `json:"s,omitempty"`
	NC  int   `json:"nc"`
	Vec []int `json:"vec"`
	// Hits and Misses are the orbit's observed cache traffic; Size is
	// their sum — the placements this orbit explains.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Size   int64 `json:"size"`
	// CycleLength is the steady-state period of the orbit's last
	// simulation; Clocks the lead+cycle clocks stepped across all its
	// (re-)simulations. Both zero for orbits only ever hit.
	CycleLength int64 `json:"cycle_length,omitempty"`
	Clocks      int64 `json:"clocks,omitempty"`
}

// Label renders the orbit's canonical representative compactly, e.g.
// "m=13 nc=4 d=[1 6] b=[0 7]".
func (o OrbitInfo) Label() string {
	n := len(o.Vec) / 2
	s := fmt.Sprintf("m=%d", o.M)
	if o.S > 0 {
		s += fmt.Sprintf(" s=%d", o.S)
	}
	return fmt.Sprintf("%s nc=%d d=%v b=%v", s, o.NC, o.Vec[:n], o.Vec[n:])
}

// OrbitSizeBucket is one bar of the orbit-size histogram: how many
// orbits were observed with a population in [Lo, Hi], and how many
// placements those orbits explain together.
type OrbitSizeBucket struct {
	Lo         int64 `json:"lo"`
	Hi         int64 `json:"hi"`
	Orbits     int64 `json:"orbits"`
	Placements int64 `json:"placements"`
}

// FamilyProvenance is the aggregated provenance of one configuration
// family. Resolved = Analytic + CacheHits + SimScalar + SimPacked is
// the conservation invariant: every placement the engine resolved for
// this family took exactly one path.
type FamilyProvenance struct {
	Analytic  int64 `json:"analytic"`
	CacheHits int64 `json:"cache_hits"`
	SimScalar int64 `json:"sim_scalar"`
	SimPacked int64 `json:"sim_packed"`
	Resolved  int64 `json:"resolved"`
	// SimClocks is the total lead+cycle clocks this family's
	// simulations stepped.
	SimClocks int64 `json:"sim_clocks,omitempty"`
	// Theorems counts analytic answers by theorem/equation identifier
	// ("theorem-2", "theorem-3", "eq-29").
	Theorems map[string]int64 `json:"theorems,omitempty"`
	// Orbits counts the distinct canonical orbits observed;
	// SingletonOrbits the ones observed exactly once — simulated but
	// never reused, the population behind a low hit rate.
	Orbits          int64 `json:"orbits"`
	SingletonOrbits int64 `json:"singleton_orbits"`
	// MeanOrbitSize is placements-with-orbit-rows over Orbits.
	MeanOrbitSize float64 `json:"mean_orbit_size,omitempty"`
	// OrbitSizes is the orbit-size histogram in power-of-two buckets.
	OrbitSizes []OrbitSizeBucket `json:"orbit_size_histogram,omitempty"`
	// TopOrbits are the largest orbits by explained placements;
	// UnexplainedOrbits the most re-simulated (then most expensive)
	// orbits — the miss-attribution view. Both capped at TopOrbitK.
	TopOrbits         []OrbitInfo `json:"top_orbits,omitempty"`
	UnexplainedOrbits []OrbitInfo `json:"unexplained_orbits,omitempty"`
}

// TopOrbitK caps the per-family top-orbit and unexplained-orbit lists
// of a provenance snapshot.
const TopOrbitK = 8

// ProvenanceSnapshot is the aggregated attribution view of one
// recorder, JSON-serialisable into metrics snapshots.
type ProvenanceSnapshot struct {
	// Families maps ConfigSpec.Family to its aggregation.
	Families map[string]FamilyProvenance `json:"families"`
	// DroppedOrbits counts canonical orbits past the recorder's
	// capacity bound whose per-orbit rows were not tracked (the path
	// counters above remain exact regardless).
	DroppedOrbits int64 `json:"dropped_orbits,omitempty"`
}

// Snapshot aggregates the recorder into its attribution view. Safe to
// call concurrently with recording; nil recorders return the zero
// snapshot.
func (p *Provenance) Snapshot() ProvenanceSnapshot {
	if p == nil {
		return ProvenanceSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProvenanceSnapshot{DroppedOrbits: p.dropped}
	for name, f := range p.fams {
		fp := FamilyProvenance{
			Analytic:  f.paths[PathAnalytic],
			CacheHits: f.paths[PathCache],
			SimScalar: f.paths[PathSimScalar],
			SimPacked: f.paths[PathSimPacked],
			SimClocks: f.clocks,
		}
		fp.Resolved = fp.Analytic + fp.CacheHits + fp.SimScalar + fp.SimPacked
		for thm, n := range f.theorems {
			if fp.Theorems == nil {
				fp.Theorems = make(map[string]int64)
			}
			fp.Theorems[thm] = n
		}
		orbits := make([]OrbitInfo, 0, len(f.orbits))
		for key, o := range f.orbits {
			orbits = append(orbits, OrbitInfo{
				M: key.m, S: key.s, NC: key.nc, Vec: o.vec,
				Hits: o.hits, Misses: o.misses, Size: o.hits + o.misses,
				CycleLength: o.cycleLen, Clocks: o.clocks,
			})
		}
		fp.Orbits = int64(len(orbits))
		var placements int64
		for _, o := range orbits {
			placements += o.Size
			if o.Size == 1 {
				fp.SingletonOrbits++
			}
		}
		if fp.Orbits > 0 {
			fp.MeanOrbitSize = float64(placements) / float64(fp.Orbits)
		}
		fp.OrbitSizes = orbitSizeHistogram(orbits)
		fp.TopOrbits = topOrbits(orbits, TopOrbitK, func(a, b OrbitInfo) bool {
			if a.Size != b.Size {
				return a.Size > b.Size
			}
			return orbitLess(a, b)
		})
		unexplained := orbits[:0]
		for _, o := range orbits {
			if o.Misses > 0 {
				unexplained = append(unexplained, o)
			}
		}
		fp.UnexplainedOrbits = topOrbits(unexplained, TopOrbitK, func(a, b OrbitInfo) bool {
			if a.Misses != b.Misses {
				return a.Misses > b.Misses
			}
			if a.Clocks != b.Clocks {
				return a.Clocks > b.Clocks
			}
			return orbitLess(a, b)
		})
		if s.Families == nil {
			s.Families = make(map[string]FamilyProvenance)
		}
		s.Families[name] = fp
	}
	return s
}

// orbitLess is the deterministic tie-break ordering on orbits: by
// memory shape, then canonical vector.
func orbitLess(a, b OrbitInfo) bool {
	if a.M != b.M {
		return a.M < b.M
	}
	if a.S != b.S {
		return a.S < b.S
	}
	if a.NC != b.NC {
		return a.NC < b.NC
	}
	for i := range a.Vec {
		if i >= len(b.Vec) {
			return false
		}
		if a.Vec[i] != b.Vec[i] {
			return a.Vec[i] < b.Vec[i]
		}
	}
	return len(a.Vec) < len(b.Vec)
}

// topOrbits sorts a copy of orbits by less and returns the first k.
func topOrbits(orbits []OrbitInfo, k int, less func(a, b OrbitInfo) bool) []OrbitInfo {
	out := append([]OrbitInfo(nil), orbits...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// orbitSizeHistogram buckets orbit populations into power-of-two bins
// (1, 2, 3-4, 5-8, ...).
func orbitSizeHistogram(orbits []OrbitInfo) []OrbitSizeBucket {
	if len(orbits) == 0 {
		return nil
	}
	var buckets []OrbitSizeBucket
	find := func(size int64) *OrbitSizeBucket {
		lo, hi := int64(1), int64(1)
		for size > hi {
			lo = hi + 1
			hi *= 2
		}
		for i := range buckets {
			if buckets[i].Lo == lo {
				return &buckets[i]
			}
		}
		buckets = append(buckets, OrbitSizeBucket{Lo: lo, Hi: hi})
		return &buckets[len(buckets)-1]
	}
	for _, o := range orbits {
		b := find(o.Size)
		b.Orbits++
		b.Placements += o.Size
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Lo < buckets[j].Lo })
	return buckets
}

// FamilyNames lists the snapshot's family names, legacy families first
// (matching the Metrics rendering order), the rest sorted.
func (s ProvenanceSnapshot) FamilyNames() []string {
	fams := make(map[string]FamilyMetrics, len(s.Families))
	for name := range s.Families {
		fams[name] = FamilyMetrics{}
	}
	return familyOrder(fams, false)
}

// pct renders a share as "12.3%", "-" when the denominator is zero.
func pct(n, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

// Table renders the attribution report as aligned text tables: the
// per-family path split, the per-theorem analytic hit table, and per
// family the orbit-size histogram plus the top unexplained orbits.
func (s ProvenanceSnapshot) Table() string {
	out := "result provenance (per-family path split):\n"
	t := &textplot.Table{Header: []string{"family", "resolved", "analytic", "cache", "simulated", "orbits", "singleton", "mean orbit"}}
	for _, name := range s.FamilyNames() {
		f := s.Families[name]
		sim := f.SimScalar + f.SimPacked
		t.Add(name, f.Resolved, pct(f.Analytic, f.Resolved), pct(f.CacheHits, f.Resolved),
			pct(sim, f.Resolved), f.Orbits, pct(f.SingletonOrbits, f.Orbits),
			fmt.Sprintf("%.1f", f.MeanOrbitSize))
	}
	out += t.String()
	thm := &textplot.Table{Header: []string{"family", "theorem", "analytic hits"}}
	rows := 0
	for _, name := range s.FamilyNames() {
		f := s.Families[name]
		ids := make([]string, 0, len(f.Theorems))
		for id := range f.Theorems {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			thm.Add(name, id, f.Theorems[id])
			rows++
		}
	}
	if rows > 0 {
		out += "\nanalytic attribution (per-theorem hits):\n" + thm.String()
	}
	for _, name := range s.FamilyNames() {
		f := s.Families[name]
		if len(f.OrbitSizes) == 0 {
			continue
		}
		out += fmt.Sprintf("\n%s orbit sizes (placements per canonical key):\n", name)
		h := &textplot.Table{Header: []string{"orbit size", "orbits", "placements"}}
		for _, b := range f.OrbitSizes {
			label := strconv.FormatInt(b.Lo, 10)
			if b.Hi > b.Lo {
				label = fmt.Sprintf("%d-%d", b.Lo, b.Hi)
			}
			h.Add(label, b.Orbits, b.Placements)
		}
		out += h.String()
		if len(f.UnexplainedOrbits) > 0 {
			out += fmt.Sprintf("%s top unexplained orbits (most re-simulated, then most clocks):\n", name)
			u := &textplot.Table{Header: []string{"orbit", "hits", "misses", "cycle", "clocks"}}
			for _, o := range f.UnexplainedOrbits {
				u.Add(o.Label(), o.Hits, o.Misses, o.CycleLength, o.Clocks)
			}
			out += u.String()
		}
	}
	if s.DroppedOrbits > 0 {
		out += fmt.Sprintf("(%d orbits past the recorder capacity were not tracked per-orbit)\n", s.DroppedOrbits)
	}
	return out
}

// WriteCSV exports the snapshot in long form: one row per (family,
// record kind, label) with the counts attached. Kinds are "path"
// (label: analytic/cache/sim-scalar/sim-packed), "theorem" (label:
// the theorem identifier), "orbit_size" (label: the bucket), and
// "unexplained_orbit" (label: the canonical representative).
func (s ProvenanceSnapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"family", "kind", "label", "count", "placements", "clocks"}); err != nil {
		return err
	}
	row := func(family, kind, label string, count, placements, clocks int64) {
		cw.Write([]string{family, kind, label, //nolint:errcheck // Flush reports
			strconv.FormatInt(count, 10), strconv.FormatInt(placements, 10), strconv.FormatInt(clocks, 10)})
	}
	for _, name := range s.FamilyNames() {
		f := s.Families[name]
		row(name, "path", PathAnalytic.String(), f.Analytic, f.Analytic, 0)
		row(name, "path", PathCache.String(), f.CacheHits, f.CacheHits, 0)
		row(name, "path", PathSimScalar.String(), f.SimScalar, f.SimScalar, 0)
		row(name, "path", PathSimPacked.String(), f.SimPacked, f.SimPacked, f.SimClocks)
		ids := make([]string, 0, len(f.Theorems))
		for id := range f.Theorems {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			row(name, "theorem", id, f.Theorems[id], f.Theorems[id], 0)
		}
		for _, b := range f.OrbitSizes {
			label := strconv.FormatInt(b.Lo, 10)
			if b.Hi > b.Lo {
				label = fmt.Sprintf("%d-%d", b.Lo, b.Hi)
			}
			row(name, "orbit_size", label, b.Orbits, b.Placements, 0)
		}
		for _, o := range f.UnexplainedOrbits {
			row(name, "unexplained_orbit", o.Label(), o.Misses, o.Size, o.Clocks)
		}
	}
	cw.Flush()
	return cw.Error()
}
