package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteChrome writes events as Chrome trace-event JSON (the format
// Perfetto and chrome://tracing open): one process per sweep cell, one
// thread per track, instant events with the cycle number as the
// timestamp. The viewer displays timestamps as microseconds; here 1 µs
// reads as 1 cycle. Events are canonically sorted first, so the output
// is byte-identical for any emission interleaving.
func WriteChrome(w io.Writer, evs []Event) error {
	sorted := make([]Event, len(evs))
	copy(sorted, evs)
	SortEvents(sorted)

	// Assign one thread id per (cell, track) in sorted order, so ids are
	// deterministic, and name processes/threads with metadata events.
	type key struct {
		cell  int
		track string
	}
	tids := make(map[key]int)
	var keys []key
	for _, e := range sorted {
		k := key{e.Cell, e.Track}
		if _, ok := tids[k]; !ok {
			tids[k] = 0
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cell != keys[j].cell {
			return keys[i].cell < keys[j].cell
		}
		return keys[i].track < keys[j].track
	})
	for i, k := range keys {
		tids[k] = i + 1
	}

	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	lastCell := -1
	for _, k := range keys {
		if k.cell != lastCell {
			lastCell = k.cell
			if err := emit(meta{Name: "process_name", Ph: "M", Pid: k.cell,
				Args: map[string]string{"name": fmt.Sprintf("cell %d", k.cell)}}); err != nil {
				return err
			}
		}
		if err := emit(meta{Name: "thread_name", Ph: "M", Pid: k.cell, Tid: tids[k],
			Args: map[string]string{"name": k.track}}); err != nil {
			return err
		}
	}

	type args struct {
		Scope  string `json:"scope"`
		Value  int64  `json:"value"`
		Detail string `json:"detail,omitempty"`
	}
	type instant struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   uint64 `json:"ts"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
		S    string `json:"s"`
		Args args   `json:"args"`
	}
	for _, e := range sorted {
		ev := instant{
			Name: e.Kind, Ph: "i", Ts: e.Cycle,
			Pid: e.Cell, Tid: tids[key{e.Cell, e.Track}], S: "t",
			Args: args{Scope: e.Scope.String(), Value: e.Value, Detail: e.Detail},
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
