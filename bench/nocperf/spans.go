package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer of the program. Times
// are nanoseconds since the recording process started its pass; Parent
// is the ID of the enclosing span, -1 for a root.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Args   map[string]string `json:"args,omitempty"`
}

// tracer keeps the spans of one pass in memory. A nil tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open one and returns
// the function that closes it and reports its duration in seconds. args
// are key, value pairs.
func (t *tracer) begin(name string, args ...string) func() float64 {
	if t == nil {
		return func() float64 { return 0 }
	}
	s := span{ID: len(t.spans), Parent: -1, Name: name, Start: int64(time.Since(t.t0))}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	if len(args) > 0 {
		s.Args = map[string]string{}
		for i := 0; i+1 < len(args); i += 2 {
			s.Args[args[i]] = args[i+1]
		}
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	id := s.ID
	return func() float64 {
		s := &t.spans[id]
		s.End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
		return float64(s.End-s.Start) / 1e9
	}
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Overlapping
// children are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, curS, curE int64
		open := false
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curS, curE, open = lo, hi, true
			case lo > curE:
				covered += curE - curS
				curS, curE = lo, hi
			case hi > curE:
				curE = hi
			}
		}
		if open {
			covered += curE - curS
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// tracedPass is the span record of one traced child pass.
type tracedPass struct {
	Label string
	Spans []span
}

// selfTimeRow is one line of the self-time table.
type selfTimeRow struct {
	Name        string
	Calls       int
	Total, Self int64
}

// selfTimeTable sums self and total time per span name across passes,
// largest self time first.
func selfTimeTable(passes []tracedPass) []selfTimeRow {
	rows := map[string]*selfTimeRow{}
	for _, p := range passes {
		self := selfTimes(p.Spans)
		for i, s := range p.Spans {
			r := rows[s.Name]
			if r == nil {
				r = &selfTimeRow{Name: s.Name}
				rows[s.Name] = r
			}
			r.Calls++
			r.Total += s.End - s.Start
			r.Self += self[i]
		}
	}
	out := make([]selfTimeRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSelfTimeTable renders the table.
func writeSelfTimeTable(w io.Writer, rows []selfTimeRow) {
	fmt.Fprintf(w, "%-28s %6s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %6d %12.6f %12.6f\n", r.Name, r.Calls, float64(r.Total)/1e9, float64(r.Self)/1e9)
	}
}

// writeChromeTrace writes the passes as one Chrome trace-event document
// that Perfetto and chrome://tracing open: one process per pass, one
// complete event per span, timestamps in microseconds.
func writeChromeTrace(w io.Writer, passes []tracedPass) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var events []event
	for pid, p := range passes {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": p.Label}})
		for _, s := range p.Spans {
			args := map[string]string{"span": fmt.Sprint(s.ID), "parent": fmt.Sprint(s.Parent)}
			for k, v := range s.Args {
				args[k] = v
			}
			events = append(events, event{Name: s.Name, Ph: "X", Pid: pid,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args})
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}
