package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"ivm/internal/memsys"
	"ivm/internal/textplot"
)

// The paper-style diagram: one row per bank, one column per clock
// period, where
//
//	1,2,…  the bank is servicing an access of that stream (repeated
//	       for the n_c clocks the bank stays active),
//	<      the higher-numbered stream is delayed at this bank by the
//	       lower-numbered one,
//	>      the lower-numbered stream is delayed by the higher one,
//	*      the stream is delayed by a section conflict,
//	.      the bank is idle.
//
// Delay markers overwrite service digits in the cell where the delayed
// request is waiting, exactly as in the paper's figures.

// Legend returns the marker legend of the diagram.
func Legend() string {
	return "digits: bank servicing that stream; '<' delay of higher stream by lower; '>' delay of lower by higher; '*' section conflict; '.' idle"
}

// Render draws clocks [0, clocks) of the window as the bank × clock
// diagram, one "<bank> <cells>" line per bank. The window must hold
// every event of those clocks (ports·clocks events suffice); cells of
// events it no longer holds read as idle.
func (r *Recorder) Render(clocks int64) string {
	return r.diagram(clocks, nil, nil)
}

// RenderWithSections prefixes every row with the bank's section, in the
// style of Figures 7–9 ("section - bank").
func (r *Recorder) RenderWithSections(clocks int64, section func(bank int) int) string {
	return r.diagram(clocks, section, nil)
}

// RenderWithPriority adds the priority row of Figures 8–9 above the
// sectioned rows: for each clock, the label byte holder(t) of the port
// holding the highest priority (all "1"s under a fixed rule, rotating
// under the cyclic rule).
func (r *Recorder) RenderWithPriority(clocks int64, section func(bank int) int, holder func(t int64) byte) string {
	return r.diagram(clocks, section, holder)
}

func (r *Recorder) diagram(clocks int64, section func(int) int, holder func(int64) byte) string {
	width := len(fmt.Sprint(r.banks - 1))
	// One buffer of the final size: a row per bank, the priority row,
	// and room for the row prefixes.
	var b bytes.Buffer
	b.Grow((r.banks + 1) * (int(clocks) + width + 16))
	if holder != nil {
		fmt.Fprintf(&b, "prio %*s ", width, "")
		for t := int64(0); t < clocks; t++ {
			b.WriteByte(holder(t))
		}
		b.WriteByte('\n')
	}
	// Lay out every row with idle cells, remembering where each starts.
	rows := make([]int64, r.banks)
	for bank := range rows {
		if section != nil {
			fmt.Fprintf(&b, "%d - ", section(bank))
		}
		fmt.Fprintf(&b, "%*d ", width, bank)
		rows[bank] = int64(b.Len())
		for t := int64(0); t < clocks; t++ {
			b.WriteByte('.')
		}
		b.WriteByte('\n')
	}
	out := b.Bytes()

	// Service digits first, then delay markers, each in event order: a
	// marker overwrites the digit of the cell where the request waits.
	events := r.Events()
	for _, e := range events {
		if e.Granted() {
			digit := r.digit(e.Port)
			for t := e.Clock; t < min(e.Clock+int64(r.bankBusy), clocks); t++ {
				out[rows[e.Bank]+t] = digit
			}
		}
	}
	for _, e := range events {
		if e.Granted() || e.Clock >= clocks {
			continue
		}
		mark := byte('<') // the higher label delayed by the lower one: "<" depicts a delay of 2 by 1
		switch {
		case e.Kind == memsys.SectionConflict:
			mark = '*'
		case r.digit(e.Blocker) > r.digit(e.Port):
			mark = '>' // the lower label delayed by the higher one
		}
		out[rows[e.Bank]+e.Clock] = mark
	}
	return string(out)
}

// digit is the byte a port paints in the diagram: its label's first
// byte, or its 1-based index (mod 9).
func (r *Recorder) digit(port int32) byte {
	if l := r.Label(port); l != "" {
		return l[0]
	}
	return byte('1' + port%9)
}

// csvHeader is the column row of every CSV export, from the window
// (WriteCSV) or streamed (StreamCSV); the two are byte-identical on any
// events they both cover.
const csvHeader = "clock,port,label,cpu,bank,kind,blocker"

// writeCSVRow formats one event as a timeline row. Grants carry kind
// "grant" and an empty blocker column.
func writeCSVRow(w io.Writer, e Event, label string) error {
	kind, blocker := "grant", ""
	if !e.Granted() {
		kind = e.Kind.String()
		blocker = fmt.Sprintf("%d", e.Blocker)
	}
	_, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%s,%s\n",
		e.Clock, e.Port, label, e.CPU, e.Bank, kind, blocker)
	return err
}

// WriteCSV renders the recorder's window as a CSV timeline, one row per
// event: clock, port, label, cpu, bank, kind, blocker. Once the window
// has wrapped the first row is the oldest event kept, not the start of
// the run; StreamCSV exports a run losslessly.
func WriteCSV(w io.Writer, r *Recorder) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for _, e := range r.Events() {
		if err := writeCSVRow(w, e, r.Label(e.Port)); err != nil {
			return err
		}
	}
	return nil
}

// Report renders the per-bank grants, delays and utilisation table
// plus the bandwidth estimate and the conflict-kind totals.
func (r *Recorder) Report() string {
	s := r.Snapshot()
	var b strings.Builder
	tbl := &textplot.Table{Header: []string{"bank", "grants", "delays seen", "utilisation"}}
	for bank := 0; bank < s.Banks; bank++ {
		tbl.Add(bank, s.BankGrants[bank], s.BankDelays[bank], fmt.Sprintf("%.3f", s.Utilization[bank]))
	}
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "\nbandwidth estimate: %.4f grants/clock over %d clocks\n", s.Bandwidth, s.ObservedClocks)
	fmt.Fprintf(&b, "delays: %d bank, %d simultaneous, %d section\n",
		s.BankConflicts, s.SimultaneousConflicts, s.SectionConflicts)
	return b.String()
}
