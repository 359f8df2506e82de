// Package core implements the paper's primary contribution: the
// reconfigurable circuit-switched Network-on-Chip router (Wolkotte et al.,
// IPDPS 2005, Section 5).
//
// A router has five bidirectional ports (one tile port, four neighbour
// ports). Each link direction is divided into independent 4-bit "lanes"
// (lane division multiplexing); each lane carries one circuit. Inside the
// router a 16×20 fully connected crossbar connects the 16 foreign input
// lanes to the 20 output lanes; output lanes are registered, so the network
// speed depends only on the delay of a single router plus one link. Which
// input feeds which output is stored in a 100-bit configuration memory
// (4-bit select + 1 activation bit per output lane) written via 10-bit
// configuration commands that arrive over the separate best-effort network.
//
// A data converter per tile port serializes a 20-bit packet — a 4-bit
// header and a 16-bit data word (Fig. 6) — onto a lane over five clock
// cycles, and deserializes in the opposite direction. Flow control is an
// acknowledgement wire per lane in the reverse direction combined with a
// window counter (Section 5.2): the source may have at most WC
// unacknowledged packets in flight and the destination acknowledges every X
// consumed packets, which prevents destination buffer overflow whenever
// WC does not exceed the buffer capacity.
//
// All components are cycle-accurate and bit-accurate; they report their
// switching activity to an optional power.Meter so the paper's power
// experiments (Figures 9 and 10) can be regenerated.
package core

import "fmt"

// Port identifies one of the router's five bidirectional ports.
type Port int

// The five ports of the paper's router: one processing-tile port and the
// four mesh neighbours.
const (
	Tile Port = iota
	North
	East
	South
	West
)

// String returns the port name.
func (p Port) String() string {
	switch p {
	case Tile:
		return "Tile"
	case North:
		return "North"
	case East:
		return "East"
	case South:
		return "South"
	case West:
		return "West"
	default:
		return fmt.Sprintf("Port(%d)", int(p))
	}
}

// Opposite returns the port that faces p on a neighbouring router (North ↔
// South, East ↔ West). It panics for the tile port, which has no opposite.
func (p Port) Opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		panic(fmt.Sprintf("core: port %v has no opposite", p))
	}
}

// ExitPort returns the port by which a dimension-ordered route to
// (dx, dy) leaves the router at (x, y), X first when xFirst, or Tile
// at the destination: with xFirst, East or West until X matches, then
// South or North; otherwise the reverse. X grows eastward, Y southward.
// It is the one rule of the mesh's X-then-Y and Y-then-X routes: the
// lane allocator, the best-effort network and the single-router
// pattern projection all take their ports from it.
func ExitPort(x, y, dx, dy int, xFirst bool) Port {
	switch {
	case x != dx && (xFirst || y == dy):
		if dx > x {
			return East
		}
		return West
	case y < dy:
		return South
	case y > dy:
		return North
	default:
		return Tile
	}
}

// Params are the design-time parameters of the circuit-switched router
// (Section 5.1: "The width and number of lanes are adjustable parameters in
// the design").
type Params struct {
	// Ports is the number of bidirectional ports. The paper uses 5.
	Ports int
	// LanesPerPort is the number of unidirectional lanes per port per
	// direction. The paper uses 4.
	LanesPerPort int
	// LaneWidth is the data width of one lane in bits. The paper uses 4.
	LaneWidth int
	// TileWidth is the tile-interface data width in bits. The paper uses
	// 16, compatible with the packet-switched alternative.
	TileWidth int
}

// DefaultParams returns the paper's configuration: 5 ports, 4 lanes of
// 4 bits per port per direction, 16-bit tile interface.
func DefaultParams() Params {
	return Params{Ports: 5, LanesPerPort: 4, LaneWidth: 4, TileWidth: 16}
}

// maxLanesPerPort bounds LanesPerPort: an assembly packs the enables of
// its tile-port converters into one uint64 per direction.
const maxLanesPerPort = 64

// Validate checks the parameters for consistency.
func (p Params) Validate() error {
	switch {
	case p.Ports < 2:
		return fmt.Errorf("core: need at least 2 ports, have %d", p.Ports)
	case p.LanesPerPort < 1:
		return fmt.Errorf("core: need at least 1 lane per port, have %d", p.LanesPerPort)
	case p.LanesPerPort > maxLanesPerPort:
		return fmt.Errorf("core: LanesPerPort %d exceeds %d lanes per port",
			p.LanesPerPort, maxLanesPerPort)
	case p.LaneWidth < 1 || p.LaneWidth > 16:
		return fmt.Errorf("core: lane width %d out of range 1..16", p.LaneWidth)
	case p.TileWidth < 1 || p.TileWidth > 32:
		return fmt.Errorf("core: tile width %d out of range 1..32", p.TileWidth)
	case p.TileWidth%p.LaneWidth != 0:
		return fmt.Errorf("core: tile width %d not divisible by lane width %d",
			p.TileWidth, p.LaneWidth)
	}
	return nil
}

// TotalLanes returns the number of lanes per direction through the router
// (inputs or outputs): Ports × LanesPerPort (20 in the paper).
func (p Params) TotalLanes() int { return p.Ports * p.LanesPerPort }

// ForeignLanes returns the number of crossbar inputs per output lane: all
// lanes of the other ports (16 in the paper — "20x20 is not necessary,
// because data does not have to flow back").
func (p Params) ForeignLanes() int { return (p.Ports - 1) * p.LanesPerPort }

// PacketNibbles returns the number of lane transfers per packet: the 4-bit
// header plus the data word, rounded up to whole lane transfers (5 in the
// paper: 4-bit header + 16-bit data over a 4-bit lane).
func (p Params) PacketNibbles() int {
	return (4 + p.TileWidth + p.LaneWidth - 1) / p.LaneWidth
}

// PacketBits returns the total packet size in bits (20 in the paper).
func (p Params) PacketBits() int { return p.PacketNibbles() * p.LaneWidth }

// SelBits returns the width of one crossbar select field: enough bits to
// index the foreign input lanes (4 in the paper).
func (p Params) SelBits() int {
	b := 0
	for 1<<uint(b) < p.ForeignLanes() {
		b++
	}
	return b
}

// ConfigBitsPerLane returns the configuration bits per output lane: the
// select plus the activation bit (5 in the paper).
func (p Params) ConfigBitsPerLane() int { return p.SelBits() + 1 }

// ConfigBits returns the total configuration memory size (5×20 = 100 in
// the paper).
func (p Params) ConfigBits() int { return p.ConfigBitsPerLane() * p.TotalLanes() }

// ConfigWordBits returns the size of one configuration command: output lane
// address plus the per-lane configuration (10 in the paper: "Configuration
// of 1 lane requires 10 bits").
func (p Params) ConfigWordBits() int {
	b := 0
	for 1<<uint(b) < p.TotalLanes() {
		b++
	}
	return b + p.ConfigBitsPerLane()
}

// LaneID identifies one lane of one port.
type LaneID struct {
	// Port is the lane's port.
	Port Port
	// Lane is the lane index within the port, 0..LanesPerPort-1.
	Lane int
}

// String renders the lane as e.g. "East.2".
func (l LaneID) String() string { return fmt.Sprintf("%v.%d", l.Port, l.Lane) }

// Global returns the flat lane index port×LanesPerPort+lane used by the
// crossbar and the configuration memory.
func (p Params) Global(l LaneID) int {
	if int(l.Port) < 0 || int(l.Port) >= p.Ports || l.Lane < 0 || l.Lane >= p.LanesPerPort {
		panic(fmt.Sprintf("core: lane %v out of range for %d ports × %d lanes",
			l, p.Ports, p.LanesPerPort))
	}
	return int(l.Port)*p.LanesPerPort + l.Lane
}

// LaneOf is the inverse of Global.
func (p Params) LaneOf(global int) LaneID {
	if global < 0 || global >= p.TotalLanes() {
		panic(fmt.Sprintf("core: global lane %d out of range", global))
	}
	return LaneID{Port: Port(global / p.LanesPerPort), Lane: global % p.LanesPerPort}
}

// RelIndex returns the crossbar select value that makes an output lane of
// port outPort listen to the given input lane: foreign lanes are numbered
// in increasing port order, skipping outPort. It returns an error if the
// input lane belongs to outPort itself (data never flows back out of the
// port it came in on).
func (p Params) RelIndex(outPort Port, in LaneID) (int, error) {
	if in.Port == outPort {
		return 0, fmt.Errorf("core: input %v and output port %v coincide", in, outPort)
	}
	idx := 0
	for q := 0; q < p.Ports; q++ {
		if Port(q) == outPort {
			continue
		}
		if Port(q) == in.Port {
			return idx*p.LanesPerPort + in.Lane, nil
		}
		idx++
	}
	panic(fmt.Sprintf("core: port %v out of range", in.Port))
}

// InputLane is the inverse of RelIndex: it returns the global input lane
// selected by rel at an output lane of port outPort.
func (p Params) InputLane(outPort Port, rel int) int {
	if rel < 0 || rel >= p.ForeignLanes() {
		panic(fmt.Sprintf("core: relative index %d out of range", rel))
	}
	portIdx := rel / p.LanesPerPort
	lane := rel % p.LanesPerPort
	for q := 0; q < p.Ports; q++ {
		if Port(q) == outPort {
			continue
		}
		if portIdx == 0 {
			return p.Global(LaneID{Port: Port(q), Lane: lane})
		}
		portIdx--
	}
	panic("core: unreachable")
}
