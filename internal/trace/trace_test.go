package trace

import (
	"strings"
	"testing"

	"ivm/internal/memsys"
)

// cellRows splits a rendered diagram into its rows of cells, dropping
// the "section - bank" prefixes.
func cellRows(out string) []string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, l := range lines {
		lines[i] = l[strings.LastIndex(l, " ")+1:]
	}
	return lines
}

// countMarks counts each cell byte over a rendered diagram.
func countMarks(out string) map[byte]int {
	counts := make(map[byte]int)
	for _, row := range cellRows(out) {
		for i := 0; i < len(row); i++ {
			counts[row[i]]++
		}
	}
	return counts
}

func TestRecorderSingleStream(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 2, CPUs: 1})
	rec := Attach(sys, 8)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(8)
	// d=1, nc=2: bank 0 serviced at clocks 0-1, 4-5; bank 1 at 1-2, 5-6...
	rows := cellRows(rec.Render(8))
	if rows[0] != "11..11.." {
		t.Errorf("row 0 = %q", rows[0])
	}
	if rows[1] != ".11..11." {
		t.Errorf("row 1 = %q", rows[1])
	}
	if rows[3] != "...11..1" {
		t.Errorf("row 3 = %q", rows[3])
	}
}

func TestRecorderDelayMarkers(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 4, CPUs: 2})
	rec := Attach(sys, 2*12)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "2", memsys.NewInfiniteStrided(0, 1))
	sys.Run(12)
	// Port 2 is blocked at bank 0 by port 1 (simultaneous conflict at
	// clock 0, bank conflicts after): '<' because blocker label 1 < 2.
	out := rec.Render(12)
	if row0 := cellRows(out)[0]; !strings.Contains(row0, "<") {
		t.Errorf("row 0 = %q, expected '<' delay marks", row0)
	}
	marks := countMarks(out)
	if marks['<'] == 0 {
		t.Errorf("marks = %v, expected '<'", marks)
	}
	if marks['*'] != 0 {
		t.Errorf("marks = %v, no section conflicts expected", marks)
	}
}

// The marker orientation follows the labels, not the port order: with
// the labels swapped the same delays read '>'.
func TestRecorderMarkerFollowsLabels(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 4, CPUs: 2})
	rec := Attach(sys, 2*12)
	sys.AddPort(0, "2", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(1, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(12)
	marks := countMarks(rec.Render(12))
	if marks['>'] == 0 || marks['<'] != 0 {
		t.Errorf("marks = %v, expected only '>' delays", marks)
	}
}

func TestRecorderSectionMarker(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 8, Sections: 2, BankBusy: 2, CPUs: 1})
	rec := Attach(sys, 2*6)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1)) // bank 0, section 0
	sys.AddPort(0, "2", memsys.NewInfiniteStrided(2, 1)) // bank 2, section 0
	sys.Run(6)
	if marks := countMarks(rec.Render(6)); marks['*'] == 0 {
		t.Errorf("marks = %v, expected '*' section-conflict marks", marks)
	}
}

func TestRenderShape(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 3, BankBusy: 1, CPUs: 1})
	rec := Attach(sys, 5)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(5)
	out := rec.Render(5)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("Render produced %d lines, want 3:\n%s", len(lines), out)
	}
	for _, ln := range lines {
		// "j " prefix plus 5 cells.
		if len(ln) != 2+5 {
			t.Fatalf("line %q has wrong width", ln)
		}
	}
	if lines[0] != "0 1..1." {
		t.Errorf("line 0 = %q", lines[0])
	}
}

func TestRenderWithSections(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, Sections: 2, BankBusy: 1, CPUs: 1})
	rec := Attach(sys, 4)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.Run(4)
	out := rec.RenderWithSections(4, sys.Section)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "0 - 0 ") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1 - 1 ") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

// The diagram clips at both window edges: service that runs past the
// last rendered clock is cut, and clocks whose events the window no
// longer holds read as idle.
func TestWindowClipping(t *testing.T) {
	run := func(window int) string {
		sys := memsys.New(memsys.Config{Banks: 4, BankBusy: 3, CPUs: 1})
		rec := Attach(sys, window)
		sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
		sys.Run(8)
		return cellRows(rec.Render(6))[0]
	}
	// Bank 0 is serviced clocks 0-2 and 4-6; 6 clocks show 0-2 and 4-5.
	if got := run(8); got != "111.11" {
		t.Errorf("whole run: row 0 = %q", got)
	}
	// A window of the last 4 events (clocks 4-7) loses the first grant.
	if got := run(4); got != "....11" {
		t.Errorf("clipped window: row 0 = %q", got)
	}
}

func TestNewRecorderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative window did not panic")
		}
	}()
	Attach(memsys.New(memsys.Config{Banks: 4, BankBusy: 2}), -1)
}

func TestRenderWithPriority(t *testing.T) {
	sys := memsys.New(memsys.Config{Banks: 4, Sections: 2, BankBusy: 1, CPUs: 1, Priority: memsys.CyclicPriority})
	rec := Attach(sys, 2*6)
	sys.AddPort(0, "1", memsys.NewInfiniteStrided(0, 1))
	sys.AddPort(0, "2", memsys.NewInfiniteStrided(1, 1))
	sys.Run(6)
	out := rec.RenderWithPriority(6, sys.Section, func(t int64) byte {
		p := sys.PriorityHolderAt(t)
		return p.Label[0]
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "prio") {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.Contains(lines[0], "121212") {
		t.Fatalf("cyclic priority row %q", lines[0])
	}
}

func TestLegendMentionsAllMarks(t *testing.T) {
	l := Legend()
	for _, tok := range []string{"<", ">", "*", "."} {
		if !strings.Contains(l, tok) {
			t.Errorf("legend misses %q", tok)
		}
	}
}
