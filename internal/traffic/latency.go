package traffic

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/packetsw"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LatencyResult characterizes word delivery latency through one router.
type LatencyResult struct {
	// Words is the number of timed deliveries.
	Words int
	// Cycles is the latency distribution in clock cycles.
	Cycles stats.Series
	// Jitter is max minus min latency — zero for an established circuit,
	// the paper's "bounded latency" guarantee in its strongest form.
	Jitter float64
}

// MeasureCircuitLatency streams timestamped words through an established
// circuit (North→Tile, one router of the given geometry) at the given
// load and measures push-to-pop latency. A circuit has no arbitration
// and no queueing: the latency is the serialization plus pipeline depth,
// identical for every word. An optional kernel override
// (sim.WithKernel) selects the simulation kernel; the measurement is
// byte-identical under both.
func MeasureCircuitLatency(p core.Params, load float64, words int, wopts ...sim.WorldOption) (LatencyResult, error) {
	if load <= 0 || load > 1 {
		return LatencyResult{}, fmt.Errorf("traffic: load %v out of (0,1]", load)
	}
	if err := p.Validate(); err != nil {
		return LatencyResult{}, err
	}
	cw := newCircuitWorld(p, core.AssemblyOptions{Flow: core.FlowParams{}, RxBufCap: 4}, wopts...)
	a, w := cw.A, cw.W
	// Feeder converter models the upstream router/tile.
	in := core.LaneID{Port: core.North, Lane: 0}
	tx := cw.Feeder(in)
	if err := a.EstablishLocal(core.Circuit{
		In: in, Out: core.LaneID{Port: core.Tile, Lane: 0},
	}); err != nil {
		return LatencyResult{}, err
	}

	src := NewSource(Pattern{FlipProb: 0.5, Load: load}, 1)
	var res LatencyResult
	// The harness measures a few hundred words at most; retaining them
	// keeps the distribution poolable across replications at no
	// meaningful cost.
	res.Cycles.Retain()
	pushTimes := map[uint16]uint64{}
	seq := uint16(0)
	skipped := 0
	w.Add(&sim.Func{OnEval: func() {
		if tx.Ready() && int(seq) < words+latencyWarmup {
			if _, ok := src.Offer(); ok {
				pushTimes[seq] = w.Cycle()
				tx.Push(core.DataWord(seq))
				seq++
			}
		}
		if word, ok := a.Rx[0].Pop(); ok {
			if t0, known := pushTimes[word.Data]; known {
				delete(pushTimes, word.Data)
				// Skip the pipeline-fill transient; steady state is what
				// the latency guarantee covers.
				if skipped < latencyWarmup {
					skipped++
					return
				}
				res.Cycles.Add(float64(w.Cycle() - t0))
				res.Words++
			}
		}
	}})
	if !w.RunUntil(func() bool { return res.Words >= words }, words*40+200) {
		return res, fmt.Errorf("traffic: circuit latency run stalled at %d/%d", res.Words, words)
	}
	res.Jitter = res.Cycles.Max() - res.Cycles.Min()
	return res, nil
}

// latencyWarmup is the number of initial deliveries excluded from latency
// statistics (pipeline fill).
const latencyWarmup = 10

// MeasurePacketLatency injects timestamped single-word packets at the
// North port of a packet-switched router with the given configuration
// towards the tile, optionally with competing background streams that
// keep the shared ejection port busy, and measures head-to-eject
// latency. Queueing and arbitration make the latency load-dependent —
// bounded but not constant.
func MeasurePacketLatency(pp packetsw.Params, load float64, words int, background bool, wopts ...sim.WorldOption) (LatencyResult, error) {
	if load <= 0 || load > 1 {
		return LatencyResult{}, fmt.Errorf("traffic: load %v out of (0,1]", load)
	}
	if err := pp.Validate(); err != nil {
		return LatencyResult{}, err
	}
	r := packetsw.NewRouter(pp, packetsw.PortRoute)
	w := sim.NewWorld(wopts...)
	w.Add(r)

	var north, west, east packetsw.Flit
	r.ConnectIn(core.North, &north)
	r.ConnectIn(core.West, &west)
	r.ConnectIn(core.East, &east)

	src := NewSource(Pattern{FlipProb: 0.5, Load: load}, 1)
	var res LatencyResult
	res.Cycles.Retain() // poolable, same as the circuit harness
	sent := 0
	// Jitter the send instants by ±1 cycle around the lane's word
	// period: a strictly periodic source phase-locks with the arbiter
	// rotation and would hide the contention entirely.
	gapRng := bitvec.NewXorShift64(5)
	nextSend := uint64(0)
	w.Add(&sim.Func{OnEval: func() {
		north = packetsw.Flit{}
		if sent < words+latencyWarmup && w.Cycle() >= nextSend {
			if _, ok := src.Offer(); ok {
				north = packetsw.Flit{
					Kind: packetsw.HeadTail, VC: 0,
					Data:        packetsw.HeadData(core.Tile),
					InjectCycle: w.Cycle(),
				}
				sent++
				nextSend = w.Cycle() + uint64(laneWordPeriod-1+gapRng.Intn(3))
			}
		}
	}})
	if background && pp.VCs < 3 {
		return LatencyResult{}, fmt.Errorf("traffic: background contention needs 3 VCs, have %d", pp.VCs)
	}
	if background {
		// Two heavy random streams on other VCs oversubscribe the shared
		// ejection port: the measured stream has to win round-robin
		// arbitration against a varying backlog. A strictly periodic
		// background would let the measured stream phase-lock with the
		// arbiter rotation and hide the contention; random arrivals are
		// what real competing traffic looks like. (The sources are driven
		// open loop; excess flits overflow and drop, which is the
		// intended oversubscription, not a protocol error.)
		rng := bitvec.NewXorShift64(42)
		w.Add(&sim.Func{OnEval: func() {
			west, east = packetsw.Flit{}, packetsw.Flit{}
			if rng.Bool(0.9) {
				west = packetsw.Flit{Kind: packetsw.HeadTail, VC: 1,
					Data: packetsw.HeadData(core.Tile)}
			}
			if rng.Bool(0.9) {
				east = packetsw.Flit{Kind: packetsw.HeadTail, VC: 2,
					Data: packetsw.HeadData(core.Tile)}
			}
		}})
	}
	skipped := 0
	w.Add(&sim.Func{OnEval: func() {
		for _, f := range r.Drain() {
			// All VC0 flits carry our timestamps (the backgrounds use
			// VC1 and VC2).
			if f.VC == 0 && f.Kind.Closes() {
				if skipped < latencyWarmup {
					skipped++
					continue
				}
				res.Cycles.Add(float64(w.Cycle() - f.InjectCycle))
				res.Words++
			}
		}
	}})
	if !w.RunUntil(func() bool { return res.Words >= words }, words*60+500) {
		return res, fmt.Errorf("traffic: packet latency run stalled at %d/%d", res.Words, words)
	}
	res.Jitter = res.Cycles.Max() - res.Cycles.Min()
	return res, nil
}
