// Package kpn models applications as Kahn-like process graphs, the
// programming model of the paper's multi-tile SoC (Section 1: "the
// application is represented as a graph with communicating functional
// processes"). Processes are mapped onto tiles at run time by the CCN; the
// channels between them are mapped onto circuit-switched connections with
// guaranteed throughput, or onto the best-effort network for low-rate
// control traffic.
package kpn

import (
	"fmt"
	"math"
)

// Class is the paper's traffic taxonomy (Section 3.3, after Rijpkema et
// al.): guaranteed throughput or best effort.
type Class int

const (
	// GT is guaranteed-throughput traffic: the network must provide
	// guaranteed bandwidth and bounded latency (the streaming majority).
	GT Class = iota
	// BE is best-effort traffic: control, interrupts and configuration
	// data, assumed to be less than 5% of the total (Section 3.3).
	BE
)

// String returns the class name.
func (c Class) String() string {
	if c == GT {
		return "GT"
	}
	return "BE"
}

// Process is one functional process of the application graph.
type Process struct {
	// Name identifies the process (e.g. "FFT").
	Name string
	// Kind hints at the tile type that executes the process most
	// efficiently (DSP, FPGA, ASIC, GPP, DSRH); informational.
	Kind string
}

// Channel is a directed communication stream between two processes.
type Channel struct {
	// Name labels the channel (e.g. the paper's edge numbers).
	Name string
	// From and To are process names.
	From, To string
	// BandwidthMbps is the required bandwidth in Mbit/s.
	BandwidthMbps float64
	// Class is GT for streaming data, BE for control.
	Class Class
	// Block, when true, marks block-based communication (OFDM symbols);
	// false is sample-streaming (UMTS). Informational, from Section 3.3.
	Block bool
}

// Graph is an application: processes plus channels.
type Graph struct {
	// Name identifies the application.
	Name string
	// Processes are the graph nodes.
	Processes []Process
	// Channels are the graph edges.
	Channels []Channel
}

// Process returns the named process, if present.
func (g *Graph) Process(name string) (Process, bool) {
	for _, p := range g.Processes {
		if p.Name == name {
			return p, true
		}
	}
	return Process{}, false
}

// Validate checks referential integrity: channel endpoints exist, names
// are unique, bandwidths are positive.
func (g *Graph) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("kpn: graph without name")
	}
	if len(g.Processes) == 0 {
		return fmt.Errorf("kpn: graph %q has no processes", g.Name)
	}
	seen := map[string]bool{}
	for _, p := range g.Processes {
		if p.Name == "" {
			return fmt.Errorf("kpn: process without name in %q", g.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("kpn: duplicate process %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, c := range g.Channels {
		if !seen[c.From] {
			return fmt.Errorf("kpn: channel %q from unknown process %q", c.Name, c.From)
		}
		if !seen[c.To] {
			return fmt.Errorf("kpn: channel %q to unknown process %q", c.Name, c.To)
		}
		if c.From == c.To {
			return fmt.Errorf("kpn: channel %q is a self loop", c.Name)
		}
		// Written so that NaN fails too.
		if !(c.BandwidthMbps > 0) || math.IsInf(c.BandwidthMbps, 1) {
			return fmt.Errorf("kpn: channel %q bandwidth %v Mbit/s must be finite and positive",
				c.Name, c.BandwidthMbps)
		}
	}
	return nil
}

// TotalBandwidthMbps sums the bandwidth of all channels of the class.
func (g *Graph) TotalBandwidthMbps(class Class) float64 {
	var t float64
	for _, c := range g.Channels {
		if c.Class == class {
			t += c.BandwidthMbps
		}
	}
	return t
}

// GTChannels returns the guaranteed-throughput channels.
func (g *Graph) GTChannels() []Channel {
	var out []Channel
	for _, c := range g.Channels {
		if c.Class == GT {
			out = append(out, c)
		}
	}
	return out
}

// MaxChannelMbps returns the largest single-channel GT bandwidth — the
// sizing driver for lanes per link (Section 5.1: "The tables of section 3
// can be used to determine the width and number of lanes").
func (g *Graph) MaxChannelMbps() float64 {
	var m float64
	for _, c := range g.Channels {
		if c.Class == GT && c.BandwidthMbps > m {
			m = c.BandwidthMbps
		}
	}
	return m
}

// BEFraction returns BE bandwidth over total bandwidth; the paper assumes
// this stays below 5%.
func (g *Graph) BEFraction() float64 {
	be, gt := g.TotalBandwidthMbps(BE), g.TotalBandwidthMbps(GT)
	if be+gt == 0 {
		return 0
	}
	return be / (be + gt)
}
