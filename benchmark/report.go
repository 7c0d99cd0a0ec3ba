package main

import (
	"fmt"
	"io"
	"slices"
)

// report prints a run for people: every metric by name and unit, then
// what lies behind them.
func report(w io.Writer, r *result) {
	fmt.Fprintf(w, "workload %s seed %d: correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	d := r.Detail
	if d == nil {
		return
	}
	s := d.Summary
	if s.Windows > 0 {
		fmt.Fprintf(w, "  windows=%d rates/s=%.0f\n", s.Windows, s.WindowRates)
		for _, c := range []struct {
			name string
			t    timing
		}{{"read", s.Read}, {"write", s.Write}} {
			if c.t.Count > 0 {
				fmt.Fprintf(w, "  %-5s calls=%d p50=%.1fus p99=%.1fus p%g=%.1fus run-p99=%.1fus window-p99s=%.0f\n", c.name, c.t.Count, c.t.P50us, c.t.P99us, c.t.TopPct, c.t.TopUs, c.t.RunP99us, c.t.WindowP99us)
			}
		}
	}
	if d.PeakRSSMB > 0 {
		fmt.Fprintf(w, "  peak RSS over the timed section, harness + servers: %.1f MiB\n", d.PeakRSSMB)
	}
	if len(d.SetupS) > 0 {
		fmt.Fprintf(w, "  set-ups (s)=%.3f  disk after set-up (MiB)=%.2f\n", d.SetupS, d.DiskMB)
	}
	if d.ReopenStale > 0 {
		fmt.Fprintf(w, "  ! %d sampled keys read differently after checkpoint+reopen (README: known finding)\n", d.ReopenStale)
	}
	if d.Samples > 0 {
		fmt.Fprintf(w, "  trainer: samples=%d auc=%.4f emb_share=%.3f\n", d.Samples, d.AUC, d.EmbShare)
	}
	for _, l := range d.Waterfall {
		fmt.Fprintln(w, "  "+l)
	}
}
