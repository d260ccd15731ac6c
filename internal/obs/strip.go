package obs

import (
	"fmt"
	"strings"

	"ivm/internal/textplot"
	"ivm/internal/trace"
)

// StripChart renders a recorder's event window as a plain-text
// bank-occupancy strip: one bar per bank showing the fraction of the
// window's clocks the bank spent servicing a grant (each grant occupies
// its bank for the bank busy time, clipped to the window), followed by
// the conflict totals of the window. Deterministic output, suitable for
// golden files.
func StripChart(r *trace.Recorder) string {
	events, banks, bankBusy := r.Events(), r.Banks(), r.BankBusy()
	if len(events) == 0 {
		return "bank occupancy: no events\n"
	}
	first, last := events[0].Clock, events[0].Clock
	for _, e := range events {
		if e.Clock < first {
			first = e.Clock
		}
		if e.Clock > last {
			last = e.Clock
		}
	}
	window := last - first + 1
	busy := make([]int64, banks)
	var grants, delays int64
	kinds := make(map[string]int64)
	for _, e := range events {
		if e.Granted() {
			grants++
			d := int64(bankBusy)
			if left := last - e.Clock + 1; left < d {
				d = left
			}
			busy[e.Bank] += d
			continue
		}
		delays++
		kinds[e.Kind.String()]++
	}

	s := textplot.Series{
		Title:  fmt.Sprintf("bank occupancy over clocks [%d,%d] (fraction of %d clocks active)", first, last, window),
		Labels: make([]string, banks),
		Values: make([]float64, banks),
	}
	width := len(fmt.Sprintf("%d", banks-1))
	for b := 0; b < banks; b++ {
		s.Labels[b] = fmt.Sprintf("bank %*d", width, b)
		s.Values[b] = float64(busy[b]) / float64(window)
	}
	var b strings.Builder
	b.WriteString(textplot.Bars(s, 40))
	fmt.Fprintf(&b, "grants %d, delays %d (bank %d, simultaneous %d, section %d)\n",
		grants, delays, kinds["bank"], kinds["simultaneous"], kinds["section"])
	return b.String()
}
