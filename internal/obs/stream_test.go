package obs

// Lossless CSV streaming next to the window export: Recorder.StreamCSV
// and trace.WriteCSV share one row writer.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ivm/internal/memsys"
	"ivm/internal/trace"
)

// TestCSVStreamByteIdenticalToRing: on a run that fits the recorder's
// window, streaming the run and exporting the window produce the same
// bytes.
func TestCSVStreamByteIdenticalToRing(t *testing.T) {
	var streamed bytes.Buffer
	sys := fig3System(memsys.KernelScalar)
	rec := trace.Attach(sys, 4096)
	rec.StreamCSV(&streamed)
	sys.Run(500)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var window bytes.Buffer
	if err := trace.WriteCSV(&window, rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), window.Bytes()) {
		t.Errorf("stream and window exports differ: stream %d bytes, window %d bytes",
			streamed.Len(), window.Len())
	}
	if rows, st := strings.Count(streamed.String(), "\n")-1, rec.WindowStats(); int64(rows) != st.Grants+st.Delays {
		t.Errorf("stream wrote %d rows, recorder observed %d events", rows, st.Grants+st.Delays)
	}
}

// TestCSVStreamLosslessPastRingCapacity: on a run ~10x the recorder's
// window, the window keeps its size while the stream keeps every event,
// and the window's rows are the tail of the streamed export.
func TestCSVStreamLosslessPastRingCapacity(t *testing.T) {
	const window = 64
	var streamed bytes.Buffer
	sys := fig3System(memsys.KernelScalar)
	rec := trace.Attach(sys, window)
	rec.StreamCSV(&streamed)
	sys.Run(10 * window / 2) // fig3 produces 2 events per clock
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st := rec.WindowStats()
	if st.Dropped == 0 {
		t.Fatal("run was meant to wrap the window")
	}
	var kept bytes.Buffer
	if err := trace.WriteCSV(&kept, rec); err != nil {
		t.Fatal(err)
	}
	streamLines := strings.Split(strings.TrimRight(streamed.String(), "\n"), "\n")
	keptLines := strings.Split(strings.TrimRight(kept.String(), "\n"), "\n")
	if int64(len(streamLines)-1) != st.Grants+st.Delays {
		t.Fatalf("stream has %d rows, want all %d events", len(streamLines)-1, st.Grants+st.Delays)
	}
	tail := streamLines[len(streamLines)-(len(keptLines)-1):]
	for i, want := range keptLines[1:] {
		if tail[i] != want {
			t.Fatalf("row %d of the window: stream tail %q, window %q", i, tail[i], want)
		}
	}
	// The truncation boundary is real: the window starts after the
	// stream's first event.
	if strings.SplitN(keptLines[1], ",", 2)[0] == strings.SplitN(streamLines[1], ",", 2)[0] {
		t.Error("window unexpectedly starts at the run start")
	}
}

// errWriter fails after n writes and counts the writes it was asked for.
type errWriter struct{ n, calls int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestCSVStreamStickyError(t *testing.T) {
	w := &errWriter{n: 1}
	sys := fig3System(memsys.KernelScalar)
	rec := trace.Attach(sys, 0)
	rec.StreamCSV(w)
	sys.Run(5000) // past the first forced flush
	if err := rec.Close(); err == nil {
		t.Fatal("Close swallowed the write error")
	}
	calls := w.calls
	sys.Run(5000)
	if err := rec.Close(); err == nil || w.calls != calls {
		t.Errorf("stream kept writing after the error (%d then %d writes), err %v", calls, w.calls, err)
	}
}

func TestCSVStreamHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.Attach(fig3System(memsys.KernelScalar), 0)
	rec.StreamCSV(&buf)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "clock,port,label,cpu,bank,kind,blocker\n" {
		t.Errorf("empty stream wrote %q", got)
	}
}
