package main

import (
	"fmt"
	"io"
)

// compareSets judges every (workload, end-to-end metric) of a changed
// run set against a base set, with the bounds BENCHMARK.json fixes (the
// registry test keeps the two equal). Each run's reported value is one
// observation; runs pair up in file order. It reports whether any row
// is worse.
func compareSets(w io.Writer, base, changed []*runReport) bool {
	values := func(runs []*runReport, wl, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if r.Workload == wl && !r.Trace {
				if v, ok := r.Values[metric]; ok {
					out = append(out, v)
				}
			}
		}
		return out
	}
	worse := false
	fmt.Fprintf(w, "%-14s %-12s %30s %30s %5s %6s  %s\n", "workload", "metric",
		"base median [q1, q3]", "new median [q1, q3]", "pairs", "wins", "verdict")
	for _, wd := range workloadDefs {
		for _, m := range endToEnd {
			b, c := values(base, wd.Name, m.Name), values(changed, wd.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			cmp := compareRuns(b, c, m.Better, m.Bound)
			fmt.Fprintf(w, "%-14s %-12s %30s %30s %5d %6.2f  %s\n", wd.Name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", cmp.BaseMed, cmp.BaseQ1, cmp.BaseQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", cmp.NewMed, cmp.NewQ1, cmp.NewQ3),
				cmp.Pairs, cmp.WinFrac, cmp.Verdict)
			worse = worse || cmp.Verdict == verdictWorse
		}
	}
	return worse
}
