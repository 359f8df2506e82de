// Command patterns is the synthetic-traffic study: a 16×16 mesh under a
// hotspot pattern versus uniform-random traffic, on all three fabrics,
// comparing delivery, latency and power. It shows the three designs'
// characteristic answers to overload: the circuit-switched fabric
// admits flows at setup time (a hotspot shows up as rejected circuits,
// with the admitted ones keeping their zero-jitter latency), the TDM
// fabric admits slot reservations (the same answer in time instead of
// space), and the packet-switched fabric admits everything and queues
// (latency grows instead). The sources are event-scheduled, so at the
// sparse 0.05 flits/cycle/node operating point the kernel parks idle
// sources and fast-forwards the idle windows between words — which is
// what makes a 256-node study like this cheap to run.
package main

import (
	"fmt"
	"log"

	"repro/noc"
)

func study(name, spatial string, inj noc.Injection) {
	sc := noc.Scenario{
		Name:      name,
		Pattern:   spatial,
		MeshWidth: 16, MeshHeight: 16,
		Cycles:    4000,
		Injection: &inj,
		Seed:      7,
	}
	sim, err := noc.NewSimulator()
	if err != nil {
		log.Fatal(err)
	}
	results, err := sim.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== %s (%s, %s:%g flits/cycle/node, 16x16) ===\n",
		name, spatial, inj.Process, inj.Rate)
	fmt.Printf("%-10s %9s %9s %9s %12s %12s %12s\n",
		"fabric", "flows", "sent", "delivered", "mean lat", "jitter", "power uW")
	for _, r := range results {
		lat, jit := "-", "-"
		if r.Latency != nil {
			lat = fmt.Sprintf("%.1f cyc", r.Latency.MeanCycles)
			jit = fmt.Sprintf("%.1f cyc", r.Latency.JitterCycles)
		}
		fmt.Printf("%-10s %4d/%4d %9d %9d %12s %12s %12.1f\n",
			r.Fabric, r.FlowsEstablished, r.FlowsRequested,
			r.WordsSent, r.WordsDelivered, lat, jit, r.Power.TotalUW)
	}
}

func main() {
	// The sparse operating point: Poisson word arrivals at 0.05
	// flits/cycle/node — underloaded everywhere except where the
	// pattern concentrates traffic.
	inj := noc.Injection{Process: "poisson", Rate: 0.05}

	// Uniform-random: traffic spreads evenly; the circuit mesh routes
	// most flows, every fabric keeps up.
	study("uniform", "uniform", inj)

	// Hotspot: 70% of every node's traffic converges on the mesh
	// centre. The circuit and TDM fabrics reject what the centre
	// cannot carry (admission control); the packet fabric takes it all
	// and pays in queueing latency at the centre router.
	study("hotspot", "hotspot:0.7", inj)

	// The same hotspot under bursty on-off arrivals (mean burst 8
	// words): the jitter columns show how each fabric passes bursts
	// through — reserved bandwidth is burst-immune, shared bandwidth
	// is not.
	study("bursty hotspot", "hotspot:0.7",
		noc.Injection{Process: "onoff", Rate: 0.05, Burstiness: 8})
}
