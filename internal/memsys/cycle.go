package memsys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"

	"ivm/internal/rat"
)

// Cycle describes the cyclic steady state of a system of infinitely
// long access streams. Because the possible memory states are finite,
// such a system always reaches a cyclic state (the paper's assumption
// 1: "neglecting startup times, we compute the effective bandwidth for
// the cyclic state").
type Cycle struct {
	// Lead is the number of clocks before the cyclic state is entered.
	Lead int64
	// Length is the period of the cyclic state in clocks.
	Length int64
	// Grants counts requests granted per port within one period.
	Grants []int64
	// Conflicts counts delayed clocks per port within one period,
	// classified as in Fig. 10c–e.
	Conflicts []Counters
}

// TotalGrants sums the per-port grants over one period.
func (c Cycle) TotalGrants() int64 {
	var n int64
	for _, g := range c.Grants {
		n += g
	}
	return n
}

// EffectiveBandwidth returns b_eff, the average number of data
// transferred per clock period in the cyclic state, as an exact
// rational (e.g. 3/2 for Fig. 8a).
func (c Cycle) EffectiveBandwidth() rat.Rational {
	return rat.New(c.TotalGrants(), c.Length)
}

// PortBandwidth returns the cyclic-state bandwidth of a single port.
func (c Cycle) PortBandwidth(i int) rat.Rational {
	return rat.New(c.Grants[i], c.Length)
}

// ErrNotPeriodic is returned by FindCycle when a source's future
// behaviour is not a pure function of the hashed state (finite or
// data-dependent sources).
var ErrNotPeriodic = errors.New("memsys: system contains non-periodic sources; cycle detection needs infinite strided streams")

// ErrNoCycle is returned when no recurrence was found within maxClocks.
var ErrNoCycle = errors.New("memsys: no cyclic state found within clock budget")

type periodicSource interface{ periodic() bool }

func isPeriodic(src Source) bool {
	ps, ok := src.(periodicSource)
	return ok && ps.periodic()
}

// FindCycle simulates until the memory state recurs and returns the
// cyclic steady state. All sources must be infinite strided streams.
// maxClocks bounds the clocks stepped, so a cycle with Lead+Length <=
// maxClocks is always found. maxClocks and the returned Lead are
// relative to the clock at the call, so FindCycle behaves identically
// on a fresh system and on one reused through Reset.
func (s *System) FindCycle(maxClocks int64) (Cycle, error) {
	for _, p := range s.ports {
		if !isPeriodic(p.Src) {
			return Cycle{}, fmt.Errorf("%w (port %d is %s)", ErrNotPeriodic, p.ID, describeSource(p.Src))
		}
	}
	return s.detectCycle(maxClocks)
}

// detectCycle is the steady-state search both kernels share: it
// records each clock's state key (appendStateKey), clock and counters
// in the system's state table until a key recurs. Once the table's
// arenas have grown it allocates nothing per clock; only the returned
// Cycle's two slices are new.
func (s *System) detectCycle(maxClocks int64) (Cycle, error) {
	t := &s.states
	t.reset()
	defer t.trim()
	start := s.clock
	for {
		lo := len(t.keys)
		t.keys = s.appendStateKey(t.keys)
		e, found := t.probe(fnv64(t.keys[lo:]))
		if found {
			prev := t.counts[e*len(s.ports):]
			c := Cycle{
				Lead:      t.entries[e].clock - start,
				Length:    s.clock - t.entries[e].clock,
				Grants:    make([]int64, len(s.ports)),
				Conflicts: make([]Counters, len(s.ports)),
			}
			for i, p := range s.ports {
				n, o := p.Count, prev[i]
				c.Grants[i] = n.Grants - o.Grants
				c.Conflicts[i] = Counters{c.Grants[i], n.Bank - o.Bank, n.Simultaneous - o.Simultaneous, n.Section - o.Section, n.Idle - o.Idle}
			}
			return c, nil
		}
		t.entries[e].clock = s.clock
		for _, p := range s.ports {
			t.counts = append(t.counts, p.Count)
		}
		if s.clock-start >= maxClocks {
			return Cycle{}, ErrNoCycle
		}
		s.Step()
	}
}

// appendStateKey appends the binary.AppendVarint encoding of the state
// that determines the system's future: the rotation pointer rr, each
// port's pending bank (-1 if none), then (bank, BankBusy(bank)) for
// every busy bank in ascending order. The scalar kernel walks busy[],
// the packed kernel its bit words; the bytes are the same.
func (s *System) appendStateKey(key []byte) []byte {
	key = binary.AppendVarint(key, int64(s.rr))
	for _, p := range s.ports {
		bank := int64(-1)
		if addr, ok := p.Src.Pending(s.clock); ok {
			bank = int64(s.mapper.Bank(addr))
		}
		key = binary.AppendVarint(key, bank)
	}
	if s.kernel != KernelPacked {
		for b, busy := range s.busy {
			if busy > 0 {
				key = binary.AppendVarint(binary.AppendVarint(key, int64(b)), int64(busy))
			}
		}
		return key
	}
	s.expireTo(s.clock)
	for wi, word := range s.words {
		for ; word != 0; word &= word - 1 {
			b := wi<<6 + bits.TrailingZeros64(word)
			key = binary.AppendVarint(binary.AppendVarint(key, int64(b)), s.expiry[b]-s.clock)
		}
	}
	return key
}

// retainLimit caps the bytes of arenas a System keeps between FindCycle
// calls, so a system reused after one long-period placement (the sweep
// budget is 2^22 clocks) does not hold that placement's memory.
const retainLimit = 1 << 20

// stateTable is FindCycle's record of seen states, in flat arenas a
// System reuses across calls: the key bytes back to back, one entry
// (key end, hash, clock) and one row of len(ports) counters per state,
// indexed by an open-addressing hash table. A hash hit counts only if
// the key bytes are equal, so a collision never reports a false cycle.
type stateTable struct {
	keys    []byte // entry keys back to back, then the key being probed
	entries []stateEntry
	counts  []Counters
	slots   []int32 // entry index + 1, 0 = empty; power-of-two length
}

type stateEntry struct {
	end   int // the key is keys[start(e):end]
	hash  uint64
	clock int64
}

func (t *stateTable) reset() {
	t.keys, t.entries, t.counts, t.slots = t.keys[:0], t.entries[:0], t.counts[:0], t.slots[:0]
}

// footprint is the bytes the table's arenas hold.
func (t *stateTable) footprint() int {
	return cap(t.keys) + cap(t.entries)*int(unsafe.Sizeof(stateEntry{})) +
		cap(t.counts)*int(unsafe.Sizeof(Counters{})) + 4*cap(t.slots)
}

// trim releases the arenas if they hold more than retainLimit bytes.
func (t *stateTable) trim() {
	if t.footprint() > retainLimit {
		*t = stateTable{}
	}
}

// start returns where entry e's key begins in keys; start(len(entries))
// is where the probed key begins.
func (t *stateTable) start(e int) int {
	if e == 0 {
		return 0
	}
	return t.entries[e-1].end
}

// probe looks up the key appended to keys after the last entry, whose
// hash is h. On a hit it drops that key and returns the matching entry
// with found = true; otherwise the key becomes a new entry.
func (t *stateTable) probe(h uint64) (e int, found bool) {
	if 2*(len(t.entries)+1) > len(t.slots) {
		t.rehash()
	}
	lo := t.start(len(t.entries))
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if t.slots[i] == 0 {
			t.entries = append(t.entries, stateEntry{end: len(t.keys), hash: h})
			t.slots[i] = int32(len(t.entries))
			return len(t.entries) - 1, false
		}
		e = int(t.slots[i] - 1)
		if t.entries[e].hash == h && bytes.Equal(t.keys[t.start(e):t.entries[e].end], t.keys[lo:]) {
			t.keys = t.keys[:lo]
			return e, true
		}
	}
}

// rehash doubles the index (to at least 64 slots), reusing its capacity.
func (t *stateTable) rehash() {
	n := max(2*len(t.slots), 64)
	if cap(t.slots) >= n {
		t.slots = t.slots[:n]
		clear(t.slots)
	} else {
		t.slots = make([]int32, n)
	}
	for e, en := range t.entries {
		i := en.hash & uint64(n-1)
		for t.slots[i] != 0 {
			i = (i + 1) & uint64(n-1)
		}
		t.slots[i] = int32(e + 1)
	}
}

// fnv64 is the 64-bit FNV-1a hash.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// SteadyBandwidth is a convenience wrapper: build a system from bank
// -space streams (one CPU unless cpuOf is given), find the cycle, and
// return b_eff. See FindCycle for the mechanics.
func SteadyBandwidth(cfg Config, maxClocks int64, specs ...StreamSpec) (rat.Rational, error) {
	sys := New(cfg)
	sys.AddStreams(specs...)
	c, err := sys.FindCycle(maxClocks)
	if err != nil {
		return rat.Zero(), err
	}
	return c.EffectiveBandwidth(), nil
}

// StreamSpec names an infinite bank-space stream for AddStreams,
// SteadyBandwidth and the experiment drivers: start bank, distance,
// owning CPU.
type StreamSpec struct {
	Start    int
	Distance int
	CPU      int
	Label    string
}

// AddStreams attaches one infinite strided source port per spec, in
// order. Streams without a label are named by their position ("1",
// "2", …), the convention every sweep table and trace uses. This is
// the one construction path from declarative stream specs to live
// ports; SteadyBandwidth and the sweep engine's generic ConfigSpec
// path both build on it.
func (s *System) AddStreams(specs ...StreamSpec) {
	for i, sp := range specs {
		label := sp.Label
		if label == "" {
			label = fmt.Sprintf("%d", i+1)
		}
		s.AddPort(sp.CPU, label, NewInfiniteStrided(int64(sp.Start), int64(sp.Distance)))
	}
}
