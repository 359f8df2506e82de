package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// LaneSel is the configuration of one crossbar output lane: which foreign
// input lane it listens to (a relative index over the other ports' lanes)
// and whether the lane is active at all. Per output lane the configuration
// memory stores SelBits+1 bits (5 in the paper; 5×20 = 100 bits total).
type LaneSel struct {
	// Enable is the activation bit. A disabled lane drives zero and, with
	// clock gating (Section 7.3), its output register is not clocked.
	Enable bool
	// In is the relative index of the selected input lane, 0..ForeignLanes-1.
	In int
}

// ConfigCmd is one 10-bit configuration command as generated by the CCN
// ("Configuration of 1 lane requires 10 bits"): the output lane address
// plus its new LaneSel. Commands arrive over the best-effort network via
// the router's small configuration interface.
type ConfigCmd struct {
	// Out is the global output lane index being configured.
	Out int
	// Sel is the new configuration of that lane.
	Sel LaneSel
}

// Encode packs the command into its wire format. Layout (LSB first):
// [laneBits: output lane][SelBits: input select][1: enable]. With the
// paper's parameters this is 5+4+1 = 10 bits.
func (c ConfigCmd) Encode(p Params) (uint32, error) {
	if c.Out < 0 || c.Out >= p.TotalLanes() {
		return 0, fmt.Errorf("core: config output lane %d out of range", c.Out)
	}
	if c.Sel.In < 0 || c.Sel.In >= p.ForeignLanes() {
		return 0, fmt.Errorf("core: config input select %d out of range", c.Sel.In)
	}
	laneBits := p.ConfigWordBits() - p.ConfigBitsPerLane()
	w := uint32(c.Out)
	w |= uint32(c.Sel.In) << uint(laneBits)
	if c.Sel.Enable {
		w |= 1 << uint(laneBits+p.SelBits())
	}
	return w, nil
}

// DecodeConfigCmd unpacks a configuration command.
func DecodeConfigCmd(p Params, w uint32) (ConfigCmd, error) {
	laneBits := p.ConfigWordBits() - p.ConfigBitsPerLane()
	if w >= 1<<uint(p.ConfigWordBits()) {
		return ConfigCmd{}, fmt.Errorf("core: config word %#x wider than %d bits",
			w, p.ConfigWordBits())
	}
	c := ConfigCmd{
		Out: int(w & (1<<uint(laneBits) - 1)),
		Sel: LaneSel{
			In:     int(w >> uint(laneBits) & (1<<uint(p.SelBits()) - 1)),
			Enable: w>>uint(laneBits+p.SelBits())&1 == 1,
		},
	}
	if c.Out >= p.TotalLanes() {
		return ConfigCmd{}, fmt.Errorf("core: config output lane %d out of range", c.Out)
	}
	if c.Sel.In >= p.ForeignLanes() {
		return ConfigCmd{}, fmt.Errorf("core: config input select %d out of range", c.Sel.In)
	}
	return c, nil
}

// Config is the router's configuration memory: one LaneSel per output lane.
type Config struct {
	p Params
	// sels is the memory image: every lane's select and activation bits,
	// including the stale select of a disabled lane, which writeToggles
	// prices on configuration writes.
	sels []LaneSel
	// src[g] is output lane g's selected global input lane, or noInput
	// when the lane is disabled. It is derived from sels, written only
	// by SetLane and copied by Copy, so the per-cycle datapath reads one
	// entry instead of decoding a select.
	src []int32
}

// noInput marks a disabled output lane in Config.src.
const noInput = -1

// NewConfig returns an all-disabled configuration memory.
func NewConfig(p Params) *Config { return &newConfigs(1, p)[0] }

// newConfigs returns n all-disabled configuration memories, their
// select images and input tables each carved from one allocation.
func newConfigs(n int, p Params) []Config {
	lanes := p.TotalLanes()
	if lanes > math.MaxInt32 {
		panic(fmt.Sprintf("core: %d lanes exceed the crossbar select table", lanes))
	}
	cs := make([]Config, n)
	sels := make([]LaneSel, n*lanes)
	src := make([]int32, n*lanes)
	for g := range src {
		src[g] = noInput
	}
	for i := range cs {
		cs[i] = Config{p: p, sels: carve(sels, i, lanes), src: carve(src, i, lanes)}
	}
	return cs
}

// Lane returns the configuration of output lane g.
func (c *Config) Lane(g int) LaneSel { return c.sels[g] }

// SetLane stores the configuration of output lane g.
func (c *Config) SetLane(g int, s LaneSel) {
	if s.In < 0 || s.In >= c.p.ForeignLanes() {
		panic(fmt.Sprintf("core: select %d out of range", s.In))
	}
	c.sels[g] = s
	c.src[g] = noInput
	if s.Enable {
		c.src[g] = int32(c.p.InputLane(c.p.LaneOf(g).Port, s.In))
	}
}

// Apply executes a configuration command.
func (c *Config) Apply(cmd ConfigCmd) { c.SetLane(cmd.Out, cmd.Sel) }

// EnabledLanes returns the number of active output lanes.
func (c *Config) EnabledLanes() int {
	n := 0
	for _, s := range c.sels {
		if s.Enable {
			n++
		}
	}
	return n
}

// InputFor returns the global input lane feeding output lane g and whether
// the lane is enabled.
func (c *Config) InputFor(g int) (int, bool) {
	in := c.src[g]
	if in == noInput {
		return 0, false
	}
	return int(in), true
}

// writeToggles returns how many configuration memory bits a batch of
// writes, applied in order, flips: for each lane the batch writes, the
// distance between its last write and its current select and
// activation bits. A lane written back to its current value flips
// nothing, and stale selects count, as in the hardware memory.
func (c *Config) writeToggles(batch []ConfigCmd) int {
	n := 0
	for i, cmd := range batch {
		if slices.ContainsFunc(batch[i+1:], func(later ConfigCmd) bool { return later.Out == cmd.Out }) {
			continue
		}
		cur := c.sels[cmd.Out]
		n += bits.OnesCount64(uint64(cur.In ^ cmd.Sel.In))
		if cur.Enable != cmd.Sel.Enable {
			n++
		}
	}
	return n
}

// Copy returns a deep copy of the configuration.
func (c *Config) Copy() *Config {
	n := NewConfig(c.p)
	copy(n.sels, c.sels)
	copy(n.src, c.src)
	return n
}

// Circuit is a fully specified connection through one router: data entering
// on In leaves on Out. It is the unit the CCN allocates along a path.
type Circuit struct {
	// In is the input lane the data arrives on.
	In LaneID
	// Out is the output lane the data leaves on.
	Out LaneID
}

// Cmd translates the circuit into the configuration command that realizes
// it, or an error if In and Out share a port.
func (cc Circuit) Cmd(p Params) (ConfigCmd, error) {
	rel, err := p.RelIndex(cc.Out.Port, cc.In)
	if err != nil {
		return ConfigCmd{}, err
	}
	return ConfigCmd{Out: p.Global(cc.Out), Sel: LaneSel{Enable: true, In: rel}}, nil
}
