package obs

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// WriteText renders the trace as an aligned table: one row per phase
// with call count, wall time, seeks, transfers, priced I/O seconds,
// and the share of the total I/O. Safe on nil (writes nothing).
func (t *Trace) WriteText(w io.Writer) {
	if t == nil {
		return
	}
	phases := t.Phases()
	total := t.TotalIOSeconds()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "trace %s\n", t.name)
	fmt.Fprintln(tw, "  phase\tcalls\twall\tseeks\ttransfers\tio(s)\tio%")
	for _, ph := range phases {
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*ph.IOSeconds/total)
		}
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%d\t%d\t%.3f\t%s\n", ph.Name, ph.Count,
			roundWall(ph.Wall), ph.IO.Seeks, ph.IO.Transfers, ph.IOSeconds, share)
	}
	fmt.Fprintf(tw, "  total\t\t\t\t\t%.3f\t\n", total)
	tw.Flush()
}

// roundWall trims wall-clock durations to a readable precision.
func roundWall(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d
	}
}
