// Package packetsw implements the paper's comparison baseline: a
// packet-switched virtual-channel wormhole router after Kavaldjiev et al.
// ("A virtual channel router for on-chip networks", IEEE SOCC 2004), the
// router the circuit-switched proposal is evaluated against in Table 4 and
// Figures 9–10.
//
// The router has five bidirectional ports of 16-bit phits and four virtual
// channels per input port, each with its own flit FIFO. Routing is
// computed per packet at the head flit; the switch is allocated per flit by
// a round-robin arbiter per output port; flow control between routers is
// credit based. In contrast to the circuit-switched router, concurrent
// streams to the same output port are time multiplexed — the source of the
// extra control switching the paper observes in its Figure 10 discussion.
//
// The model is cycle accurate and bit accurate, and reports its activity
// (buffer writes, switch traversals, output register and link toggles,
// arbitration grant changes) to an optional power.Meter.
package packetsw

import (
	"fmt"

	"repro/internal/core"
)

// Params are the design parameters of the virtual-channel router.
type Params struct {
	// Ports is the number of bidirectional ports (5, as in the paper).
	Ports int
	// VCs is the number of virtual channels per input port (4, chosen by
	// the paper to make the comparison with 4 lanes fair).
	VCs int
	// Depth is the per-VC FIFO depth in flits.
	Depth int
	// PhitBits is the link width in bits (16, as in the paper).
	PhitBits int
}

// DefaultParams returns the paper's configuration: 5 ports, 16-bit links,
// 4 virtual channels with 8-flit FIFOs.
func DefaultParams() Params {
	return Params{Ports: 5, VCs: 4, Depth: 8, PhitBits: 16}
}

// Upper bounds on the buffer knobs, far above any router the paper
// compares: a router allocates per-VC state and Depth flit slots per VC
// when it is built.
const (
	maxVCs   = 64
	maxDepth = 1024
)

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.Ports < 2:
		return fmt.Errorf("packetsw: need at least 2 ports, have %d", p.Ports)
	case p.VCs < 1:
		return fmt.Errorf("packetsw: need at least 1 VC, have %d", p.VCs)
	case p.VCs > maxVCs:
		return fmt.Errorf("packetsw: VCs %d exceeds %d virtual channels", p.VCs, maxVCs)
	case p.Depth < 1:
		return fmt.Errorf("packetsw: need FIFO depth >= 1, have %d", p.Depth)
	case p.Depth > maxDepth:
		return fmt.Errorf("packetsw: Depth %d exceeds %d flits", p.Depth, maxDepth)
	case p.PhitBits < 4 || p.PhitBits > 32:
		return fmt.Errorf("packetsw: phit width %d out of range", p.PhitBits)
	}
	return nil
}

// InputVCs returns the total number of input virtual channels (20 in the
// paper), the switch's requester count.
func (p Params) InputVCs() int { return p.Ports * p.VCs }

// Kind classifies a flit within its packet.
type Kind uint8

// Flit kinds. A single-flit packet is head and tail at once.
const (
	// Invalid marks an empty flit slot (no flit on the wire this cycle).
	Invalid Kind = iota
	// Head opens a packet and carries the routing information.
	Head
	// Body carries payload.
	Body
	// Tail closes a packet.
	Tail
	// HeadTail is a single-flit packet.
	HeadTail
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Invalid:
		return "invalid"
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Opens reports whether the flit starts a packet.
func (k Kind) Opens() bool { return k == Head || k == HeadTail }

// Closes reports whether the flit ends a packet.
func (k Kind) Closes() bool { return k == Tail || k == HeadTail }

// Flit is one link transfer: the 16-bit phit plus the sideband type and VC
// identifier.
type Flit struct {
	// Kind is the flit type (2 sideband bits on the wire).
	Kind Kind
	// VC is the virtual channel the flit travels on.
	VC int
	// Data is the phit. For head flits it carries the route field.
	Data uint16

	// InjectCycle is a measurement-only annotation (not hardware): a
	// feeder stamps it so its sink can compute packet latency.
	InjectCycle uint64
}

// Valid reports whether the slot carries a flit.
func (f Flit) Valid() bool { return f.Kind != Invalid }

// wireBits returns the bits of the flit visible on a link, for toggle
// counting: the phit plus 2 type bits and the VC id.
func (f Flit) wireBits() uint32 {
	return uint32(f.Data) | uint32(f.Kind&3)<<16 | uint32(f.VC&3)<<18
}

// RouteFunc computes the output port for a packet from its head-flit data.
// Single-router benchmarks decode a port index; mesh routers use XY
// routing closures.
type RouteFunc func(headData uint16) core.Port

// PortRoute decodes the paper's single-router benchmark format: the
// destination output port in the low 3 bits of the head flit.
func PortRoute(headData uint16) core.Port { return core.Port(headData & 7) }

// HeadData builds a head-flit payload for PortRoute.
func HeadData(dst core.Port) uint16 { return uint16(dst) & 7 }

// MakePacket builds a packet of flits on the given VC: a head flit carrying
// route data followed by the payload. A packet with no payload is a single
// HeadTail flit.
func MakePacket(vc int, route uint16, payload []uint16) []Flit {
	return AppendPacket(make([]Flit, 0, len(payload)+1), vc, route, payload)
}

// AppendPacket appends the flits MakePacket builds to fl and returns the
// extended slice, so a queue of flits grows without a slice per packet.
func AppendPacket(fl []Flit, vc int, route uint16, payload []uint16) []Flit {
	if len(payload) == 0 {
		return append(fl, Flit{Kind: HeadTail, VC: vc, Data: route})
	}
	fl = append(fl, Flit{Kind: Head, VC: vc, Data: route})
	for i, d := range payload {
		k := Body
		if i == len(payload)-1 {
			k = Tail
		}
		fl = append(fl, Flit{Kind: k, VC: vc, Data: d})
	}
	return fl
}
