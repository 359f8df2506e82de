package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/benet"
	"repro/internal/bitvec"
	"repro/internal/mesh"
	"repro/internal/packetsw"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{
		ID:     "beload",
		Title:  "Best-effort network latency vs offered load",
		Paper:  "Section 3.3 BE class (fairness, no guarantees)",
		Data:   dataFrom(BELoadData),
		Render: renderAs(renderBELoad),
	})
}

// BELoadPoint is one sample of the latency-throughput curve.
type BELoadPoint struct {
	// OfferedLoad is the per-node injection probability per cycle.
	OfferedLoad float64 `json:"offered_load"`
	// MeanLatency and P95Latency are in cycles. P95Latency is +Inf
	// (null in JSON) when the quantile lies past the histogram's last
	// bound.
	MeanLatency float64   `json:"mean_latency"`
	P95Latency  JSONFloat `json:"p95_latency"`
	// Delivered counts completed messages.
	Delivered int `json:"delivered"`
	// Throughput is delivered messages per node per 100 cycles.
	Throughput float64 `json:"throughput"`
}

// BELoadData sweeps uniform-random traffic on a 4×4 best-effort mesh and
// measures the classic latency-throughput curve: flat latency at low
// load, a knee, then rapidly growing latency near saturation — best
// effort gives fairness but no guarantees, which is exactly why the paper
// keeps GT traffic off this network.
func BELoadData() ([]BELoadPoint, error) {
	loads := []float64{0.02, 0.05, 0.1, 0.2, 0.3}
	// The pool starts jobs in index order, so the points run heaviest
	// first: the 0.3 point costs several times the 0.02 one, and the
	// worker left with the last job then holds a light one.
	pts, err := sweep.Map(context.Background(), len(loads), 0, func(i int) (BELoadPoint, error) {
		load := loads[len(loads)-1-i]
		n := benet.New(4, 4, packetsw.DefaultParams())
		rng := bitvec.NewXorShift64(uint64(1 + load*1000))
		const cycles = 4000
		var lat stats.Series
		hist := stats.NewHist(10, 20, 40, 80, 160, 320)
		delivered := 0
		// 4-word messages (a config burst or a short control exchange).
		// The network only reads a payload, so every message shares one.
		payload := []uint16{1, 2, 3, 4}
		for c := 0; c < cycles; c++ {
			for node := 0; node < 16; node++ {
				if !rng.Bool(load) {
					continue
				}
				src := mesh.Coord{X: node % 4, Y: node / 4}
				dst := mesh.Coord{X: rng.Intn(4), Y: rng.Intn(4)}
				if dst == src {
					continue
				}
				n.Send(benet.Message{Src: src, Dst: dst, Payload: payload})
			}
			n.Step()
			for _, m := range n.Delivered() {
				l := float64(m.RecvCycle - m.SentCycle)
				lat.Add(l)
				hist.Add(l)
				delivered++
			}
		}
		return BELoadPoint{
			OfferedLoad: load,
			MeanLatency: lat.Mean(),
			P95Latency:  JSONFloat(hist.Quantile(0.95)),
			Delivered:   delivered,
			Throughput:  float64(delivered) / 16 / cycles * 100,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	slices.Reverse(pts)
	return pts, nil
}

// JSONFloat is a float64 whose JSON encoding writes the values
// encoding/json rejects (±Inf, NaN) as null, so a result holding one
// still encodes. Text rendering is that of a float64.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func renderBELoad(w io.Writer, pts []BELoadPoint) error {
	fmt.Fprintln(w, "4x4 BE mesh, uniform random 4-word messages, 4000 cycles:")
	fmt.Fprintf(w, "%-14s %12s %12s %14s\n",
		"offered load", "mean lat", "p95 lat", "msgs/node/100cy")
	for _, p := range pts {
		fmt.Fprintf(w, "%-14.2f %9.1f cy %9.0f cy %14.2f\n",
			p.OfferedLoad, p.MeanLatency, p.P95Latency, p.Throughput)
	}
	fmt.Fprintln(w, "\nthe knee-shaped curve is why the paper routes only the <5% control")
	fmt.Fprintln(w, "traffic here: best effort stays fair but its latency is unbounded under")
	fmt.Fprintln(w, "load, unusable for the front-end streams that may never drop data")
	return nil
}
