// Package traffic implements the paper's benchmark methodology (Section 6):
// data sources with a controlled bit-flip rate and load, the three stream
// definitions of Table 3, and the four traffic scenarios of Fig. 8. It also
// provides the single-router harnesses that drive one circuit-switched
// assembly (RunCircuit), one packet-switched router (RunPacket) or one
// Æthereal-style TDM router (RunTDM) with a scenario while a power meter
// listens — the machinery behind Figures 9 and 10 and the noc façade's
// stream runs — plus the pattern harnesses that drive the packet and TDM
// routers with a mesh traffic pattern's projection onto one router, and
// the latency measurements.
//
// The harnesses share their parts: on the packet and TDM routers every
// stream's words come from one lane-rate offerer (streamOffer); both
// packet harnesses feed the router through one driver per input port
// (packetPorts) and pop its tile ejection queue through one drain; both
// TDM harnesses present words through one slot presenter per input port
// (tdmPorts). Every driver of a router input register chooses the
// register's next value in Eval and latches it in Commit, so results
// are byte-identical under both simulation kernels whatever order the
// components are registered in.
package traffic

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/sweep"
)

// Stream is one entry of Table 3: a unidirectional data stream through the
// router from an input port to an output port, at 100% of a lane's
// bandwidth.
type Stream struct {
	// ID is the paper's stream number (1-based).
	ID int
	// In is the port the stream enters the router on.
	In core.Port
	// Out is the port the stream leaves on.
	Out core.Port
}

// String renders the stream like Table 3.
func (s Stream) String() string {
	return fmt.Sprintf("stream %d: %v -> %v", s.ID, s.In, s.Out)
}

// PaperStreams returns Table 3's stream definitions:
//
//	1  Tile          -> Router (East)
//	2  Router (North) -> Tile
//	3  Router (West)  -> Router (East)
func PaperStreams() []Stream {
	return []Stream{
		{ID: 1, In: core.Tile, Out: core.East},
		{ID: 2, In: core.North, Out: core.Tile},
		{ID: 3, In: core.West, Out: core.East},
	}
}

// Scenario is one of the paper's four test scenarios (Fig. 8): a set of
// concurrent streams.
type Scenario struct {
	// Name is the paper's roman numeral.
	Name string
	// Streams are the concurrently active streams.
	Streams []Stream
}

// Scenarios returns the paper's four scenarios: I carries no data (the
// static offset measurement), II adds stream 1, III streams 1–2, IV
// streams 1–3. In scenario IV streams 1 and 3 share output port East: the
// circuit-switched router separates them onto different lanes (lane
// division multiplexing) while the packet-switched router time-multiplexes
// them — the comparison the paper draws from it.
func Scenarios() []Scenario {
	s := PaperStreams()
	return []Scenario{
		{Name: "I", Streams: nil},
		{Name: "II", Streams: s[:1]},
		{Name: "III", Streams: s[:2]},
		{Name: "IV", Streams: s[:3]},
	}
}

// Pattern is the data knob of the paper's test set: the expected fraction
// of bit flips between consecutive data words (0 best case, 0.5 typical,
// 1 worst case) and the offered load as a fraction of a lane's bandwidth.
type Pattern struct {
	// FlipProb is the expected bit-flip fraction in [0,1].
	FlipProb float64
	// Load is the offered load in [0,1]; the paper's figures use 1.
	Load float64
}

// Validate checks the pattern.
func (p Pattern) Validate() error {
	if p.FlipProb < 0 || p.FlipProb > 1 {
		return fmt.Errorf("traffic: flip probability %v out of [0,1]", p.FlipProb)
	}
	if p.Load < 0 || p.Load > 1 {
		return fmt.Errorf("traffic: load %v out of [0,1]", p.Load)
	}
	return nil
}

// BitFlipCases returns the paper's three data cases: best (0%), typical
// (50%) and worst (100%) bit flips.
func BitFlipCases() []float64 { return []float64{0, 0.5, 1} }

// Source produces a stream's data words: a bit-flip-controlled word
// generator plus a Bernoulli load gate. Two sources with different IDs are
// statistically independent but each is deterministic run to run.
type Source struct {
	gen  *bitvec.FlipGen
	load float64
	rng  *bitvec.XorShift64
	sent uint64
}

// NewSource returns a source for the pattern, seeded by the stream id.
func NewSource(p Pattern, streamID int) *Source {
	return NewSourceSeeded(p, streamID, 0)
}

// NewSourceSeeded returns a source whose random streams derive from both
// the stream id and a run-level base seed: distinct sweep cells draw
// statistically independent sequences while each cell stays reproducible
// regardless of scheduling. A zero base reproduces NewSource exactly.
func NewSourceSeeded(p Pattern, streamID int, base uint64) *Source {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	seed := uint64(streamID)*0x9E3779B97F4A7C15 + 12345
	if base != 0 {
		seed ^= sweep.Mix64(base)
	}
	return &Source{
		gen:  bitvec.NewFlipGen(16, p.FlipProb, seed),
		load: p.Load,
		rng:  bitvec.NewXorShift64(seed ^ 0xABCDEF),
	}
}

// Offer reports whether the source wants to emit a word this opportunity
// (the load gate) and, if so, returns it.
func (s *Source) Offer() (core.Word, bool) {
	if s.load < 1 && !s.rng.Bool(s.load) {
		return core.Word{}, false
	}
	s.sent++
	return core.DataWord(uint16(s.gen.Next())), true
}

// Sent returns the number of words emitted.
func (s *Source) Sent() uint64 { return s.sent }
