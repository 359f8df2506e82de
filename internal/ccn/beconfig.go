package ccn

import (
	"fmt"

	"repro/internal/benet"
	"repro/internal/core"
	"repro/internal/mesh"
)

// BEConfigurator delivers configuration commands over the best-effort
// network instead of applying them instantly, reproducing the paper's
// reconfiguration timing: 10 bits per lane, sent by the CCN, with a budget
// of 1 ms per lane and 20 ms for a full router (Section 5.1).
type BEConfigurator struct {
	// Net is the best-effort mesh carrying the commands.
	Net *benet.Network
	// Mesh is the circuit-switched data mesh being configured.
	Mesh *mesh.Mesh
	// CCNNode is the coordinate of the Central Coordination Node.
	CCNNode mesh.Coord
}

// ConfigureResult reports the timing of a configuration delivered over the
// BE network.
type ConfigureResult struct {
	// Commands is the number of 10-bit commands sent.
	Commands int
	// Cycles is the total cycles from first send to last command applied.
	Cycles uint64
	// MaxCommandCycles is the worst single-command delivery latency.
	MaxCommandCycles uint64
}

// TimeMS converts the total cycle count to milliseconds at the given BE
// network clock.
func (r ConfigureResult) TimeMS(freqMHz float64) float64 {
	return float64(r.Cycles) / freqMHz / 1e3
}

// MaxCommandTimeMS converts the worst per-command latency to milliseconds.
func (r ConfigureResult) MaxCommandTimeMS(freqMHz float64) float64 {
	return float64(r.MaxCommandCycles) / freqMHz / 1e3
}

// Configure sends the connection's commands from the CCN node over the BE
// network, co-simulating the BE mesh and the data mesh until every command
// has been delivered and applied. Converter enables at the endpoints are
// tile-local actions (the CCN instructs the tiles directly in the paper's
// model) and take effect with the final command.
func (b *BEConfigurator) Configure(c *Connection) (ConfigureResult, error) {
	cmds, err := c.Cmds(b.Mesh.P)
	if err != nil {
		return ConfigureResult{}, err
	}
	if len(cmds) == 0 {
		return ConfigureResult{}, fmt.Errorf("ccn: connection has no commands")
	}
	res, err := b.deliver(cmds)
	if err != nil {
		return res, err
	}

	// Enable the endpoint converters (tile-local).
	for _, lane := range c.Segments {
		first, last := lane[0], lane[len(lane)-1]
		if first.Circuit.In.Port == core.Tile {
			b.Mesh.At(first.Node).Tx[first.Circuit.In.Lane].SetEnabled(true)
		}
		if last.Circuit.Out.Port == core.Tile {
			b.Mesh.At(last.Node).Rx[last.Circuit.Out.Lane].SetEnabled(true)
		}
	}
	return res, nil
}

// FullRouterReconfig measures reconfiguring every output lane of the
// router at target: TotalLanes commands sent back to back — the paper's
// "one single router can then be fully reconfigured within 20 ms" bound.
func (b *BEConfigurator) FullRouterReconfig(target mesh.Coord) (ConfigureResult, error) {
	p := b.Mesh.P
	cmds := make([]RouterCmd, 0, p.TotalLanes())
	for g := 0; g < p.TotalLanes(); g++ {
		out := p.LaneOf(g)
		inPort := core.North
		if out.Port == core.North {
			inPort = core.South
		}
		circ := core.Circuit{In: core.LaneID{Port: inPort, Lane: out.Lane}, Out: out}
		cmd, err := circ.Cmd(p)
		if err != nil {
			return ConfigureResult{}, err
		}
		cmds = append(cmds, RouterCmd{Node: target, Cmd: cmd})
	}
	return b.deliver(cmds)
}

// deliver sends each command from the CCN node as one single-word BE
// message holding its encoded configuration word, and co-simulates the
// BE mesh and the data mesh until every command has been applied at its
// router, plus one edge for the staged configuration writes to commit.
// Each router applies the command it decodes from the word it received,
// as the paper's configuration interface does (Section 5.1).
func (b *BEConfigurator) deliver(cmds []RouterCmd) (ConfigureResult, error) {
	res := ConfigureResult{Commands: len(cmds)}
	p := b.Mesh.P
	if p.ConfigWordBits() > 16 {
		return res, fmt.Errorf("ccn: %d-bit configuration words do not fit a 16-bit BE payload word",
			p.ConfigWordBits())
	}
	for _, rc := range cmds {
		enc, err := rc.Cmd.Encode(p)
		if err != nil {
			return res, err
		}
		b.Net.Send(benet.Message{Src: b.CCNNode, Dst: rc.Node, Payload: []uint16{uint16(enc)}})
	}

	start := b.Net.Cycle()
	applied := 0
	// Generous bound: commands × mesh diameter × serialization factor.
	maxCycles := len(cmds)*(b.Mesh.W+b.Mesh.H)*50 + 1000
	for applied < len(cmds) {
		if int(b.Net.Cycle()-start) > maxCycles {
			return res, fmt.Errorf("ccn: BE configuration stalled after %d cycles (%d/%d applied)",
				maxCycles, applied, len(cmds))
		}
		b.Net.Step()
		b.Mesh.Step()
		for _, msg := range b.Net.Delivered() {
			cmd, err := core.DecodeConfigCmd(p, uint32(msg.Payload[0]))
			if err != nil {
				return res, fmt.Errorf("ccn: router %v: %w", msg.Dst, err)
			}
			b.Mesh.At(msg.Dst).R.PushConfig(cmd)
			applied++
			if lat := msg.RecvCycle - msg.SentCycle; lat > res.MaxCommandCycles {
				res.MaxCommandCycles = lat
			}
		}
	}
	b.Net.Step()
	b.Mesh.Step()
	res.Cycles = b.Net.Cycle() - start
	return res, nil
}
