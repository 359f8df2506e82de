package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/packetsw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{
		ID:     "multicast",
		Title:  "Multicast: crossbar fan-out vs packet replication",
		Paper:  "implied by the fully connected crossbar of Section 5.1",
		Data:   dataFrom(MulticastData),
		Render: renderAs(renderMulticast),
	})
}

// MulticastPoint compares delivering one stream to k destinations.
type MulticastPoint struct {
	// Fanout is the destination count.
	Fanout int `json:"fanout"`
	// CircuitUW and PacketUW are total router power at 25 MHz.
	CircuitUW float64 `json:"circuit_uw"`
	PacketUW  float64 `json:"packet_uw"`
	// PacketInjectedWords counts words the packet-switched source had to
	// inject (k copies); the circuit-switched source always injects one.
	PacketInjectedWords uint64 `json:"packet_injected_words"`
}

// MulticastData streams one 80 Mbit/s source to k ∈ {1,2,3} neighbour
// ports. The circuit-switched crossbar fans out for free — several output
// lanes select the same input lane — while the packet-switched source
// must inject one packet per destination, paying bandwidth and buffer
// energy k times.
func MulticastData() ([]MulticastPoint, error) {
	dests := []core.Port{core.East, core.South, core.West}
	return sweep.Map(context.Background(), 3, 0, func(cell int) (MulticastPoint, error) {
		k := cell + 1
		// Circuit switched: one tile lane feeding k output lanes.
		cp := core.DefaultParams()
		a := core.NewAssembly(cp, core.AssemblyOptions{Flow: core.FlowParams{}, RxBufCap: 8})
		cm := power.NewMeter(core.Netlist(cp, lib), lib, 25)
		a.BindMeter(cm, &lib, false)
		for i := 0; i < k; i++ {
			if err := a.EstablishLocal(core.Circuit{
				In:  core.LaneID{Port: core.Tile, Lane: 0},
				Out: core.LaneID{Port: dests[i], Lane: 0},
			}); err != nil {
				return MulticastPoint{}, err
			}
		}
		w := sim.NewWorld()
		w.Add(a)
		gen := bitvec.NewFlipGen(16, 0.5, 9)
		w.Add(&sim.Func{OnEval: func() {
			if a.Tx[0].Ready() {
				a.Tx[0].Push(core.DataWord(uint16(gen.Next())))
			}
		}})
		const cycles = 3000
		w.Run(cycles)
		circuitUW := cm.Report("cs").TotalUW()

		// Packet switched: k copies injected on k VCs.
		pp := packetsw.DefaultParams()
		r := packetsw.NewRouter(pp, packetsw.PortRoute)
		pm := power.NewMeter(packetsw.Netlist(pp, lib), lib, 25)
		r.BindMeter(pm)
		pw := sim.NewWorld()
		pw.Add(r)
		pgen := bitvec.NewFlipGen(16, 0.5, 9)
		injected := uint64(0)
		cyc := 0
		pw.Add(&sim.Func{OnEval: func() {
			// One source word per 5 cycles, replicated to k destinations.
			if cyc%5 == 0 {
				d := uint16(pgen.Next())
				for i := 0; i < k; i++ {
					if r.Inject(packetsw.Flit{Kind: packetsw.Head, VC: i,
						Data: packetsw.HeadData(dests[i])}) {
						injected++
					}
					r.Inject(packetsw.Flit{Kind: packetsw.Tail, VC: i, Data: d})
				}
			}
			cyc++
		}})
		pw.Run(cycles)
		return MulticastPoint{
			Fanout:              k,
			CircuitUW:           circuitUW,
			PacketUW:            pm.Report("ps").TotalUW(),
			PacketInjectedWords: injected,
		}, nil
	})
}

func renderMulticast(w io.Writer, pts []MulticastPoint) error {
	fmt.Fprintln(w, "one 80 Mbit/s source to k destinations, 25 MHz, total power [uW]:")
	fmt.Fprintf(w, "%-8s %14s %14s %16s\n", "fanout", "circuit", "packet", "PS copies sent")
	base := pts[0]
	for _, p := range pts {
		fmt.Fprintf(w, "%-8d %14.0f %14.0f %16d\n",
			p.Fanout, p.CircuitUW, p.PacketUW, p.PacketInjectedWords)
	}
	csGrowth := pts[2].CircuitUW - base.CircuitUW
	psGrowth := pts[2].PacketUW - base.PacketUW
	fmt.Fprintf(w, "\nextra power for 2 more destinations: circuit +%.0f uW, packet +%.0f uW "+
		"(%.1fx more), and 3x the injection bandwidth —\n",
		csGrowth, psGrowth, psGrowth/csGrowth)
	fmt.Fprintln(w, "the crossbar replicates by letting several output lanes select the same")
	fmt.Fprintln(w, "input lane (one register per extra copy); the packet-switched source")
	fmt.Fprintln(w, "must inject, buffer and arbitrate every copy separately")
	return nil
}
