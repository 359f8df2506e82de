package pattern

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/sweep"
)

// Process enumerates the temporal injection processes.
type Process int

const (
	// CBR injects at a constant bit rate: arrivals are spaced as evenly
	// as the cycle grid allows, with an exact fixed-point accumulator so
	// the long-run rate is the configured rate to within 2^-32.
	CBR Process = iota
	// Bernoulli injects each cycle independently with probability Rate.
	// The sampler draws the geometric inter-arrival gap directly, which
	// is distribution-identical to per-cycle coin flips but costs one
	// draw per word instead of one per cycle — the property that lets
	// sparse sources fast-forward.
	Bernoulli
	// Poisson injects with exponential inter-arrival times of mean
	// 1/Rate, quantized to the cycle grid by the ceiling — exactly a
	// geometric gap with success probability 1-exp(-Rate) (the
	// inhomogeneous-Poisson thinning view of a discrete-time process).
	Poisson
	// OnOff is a two-state Markov-modulated process (a discrete MMPP):
	// bursts of back-to-back words whose length is geometric with mean
	// Burstiness, separated by geometric silences sized so the long-run
	// rate is Rate.
	OnOff
)

// DefaultBurstiness is the on-off process's mean burst length when
// unspecified, shared by every entry point that defaults it.
const DefaultBurstiness = 4

// ProcessNames returns the parseable process names, in a fixed order.
func ProcessNames() []string { return []string{"cbr", "bernoulli", "poisson", "onoff"} }

// String renders the process name.
func (p Process) String() string {
	switch p {
	case CBR:
		return "cbr"
	case Bernoulli:
		return "bernoulli"
	case Poisson:
		return "poisson"
	case OnOff:
		return "onoff"
	default:
		return fmt.Sprintf("process(%d)", int(p))
	}
}

// ParseProcess resolves a process name. The empty string selects
// Poisson, the literature's default for synthetic workloads.
func ParseProcess(s string) (Process, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "poisson":
		return Poisson, nil
	case "cbr", "constant":
		return CBR, nil
	case "bernoulli":
		return Bernoulli, nil
	case "onoff", "on-off", "bursty", "mmpp":
		return OnOff, nil
	default:
		return 0, fmt.Errorf("pattern: unknown injection process %q (have %s)",
			s, strings.Join(ProcessNames(), ", "))
	}
}

// Injection is a configured temporal process: words per cycle per
// source, plus the burst-length knob of the on-off process.
type Injection struct {
	// Proc selects the process.
	Proc Process
	// Rate is the mean injection rate in words per cycle, in (0,1].
	Rate float64
	// Burstiness is the mean burst length in words for OnOff (>= 1);
	// ignored by the other processes.
	Burstiness float64
}

// Validate checks the configuration. NaN and infinite parameters are
// rejected.
func (i Injection) Validate() error {
	if !(i.Rate > 0 && i.Rate <= 1) {
		return fmt.Errorf("pattern: injection rate %v out of (0,1]", i.Rate)
	}
	if i.Proc == OnOff && !(i.Burstiness >= 1 && !math.IsInf(i.Burstiness, 1)) {
		return fmt.Errorf("pattern: on-off burstiness %v must be finite and >= 1", i.Burstiness)
	}
	if i.Proc != OnOff && i.Burstiness != 0 {
		return fmt.Errorf("pattern: burstiness only applies to the onoff process")
	}
	return nil
}

// String renders the injection parseably ("poisson:0.05", "onoff:0.1:8").
func (i Injection) String() string {
	s := i.Proc.String() + ":" + strconv.FormatFloat(i.Rate, 'g', -1, 64)
	if i.Proc == OnOff {
		s += ":" + strconv.FormatFloat(i.Burstiness, 'g', -1, 64)
	}
	return s
}

// ParseInjection parses "process:rate[:burstiness]", e.g. "poisson:0.05"
// or "onoff:0.1:8". A bare rate ("0.05") selects Poisson.
func ParseInjection(s string) (Injection, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) == 1 {
		if r, err := strconv.ParseFloat(parts[0], 64); err == nil {
			inj := Injection{Proc: Poisson, Rate: r}
			return inj, inj.Validate()
		}
	}
	if len(parts) < 2 || len(parts) > 3 {
		return Injection{}, fmt.Errorf("pattern: injection %q is not process:rate[:burstiness]", s)
	}
	proc, err := ParseProcess(parts[0])
	if err != nil {
		return Injection{}, err
	}
	rate, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return Injection{}, fmt.Errorf("pattern: bad injection rate %q", parts[1])
	}
	inj := Injection{Proc: proc, Rate: rate}
	if len(parts) == 3 {
		b, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return Injection{}, fmt.Errorf("pattern: bad burstiness %q", parts[2])
		}
		inj.Burstiness = b
	}
	if inj.Proc == OnOff && inj.Burstiness == 0 {
		inj.Burstiness = DefaultBurstiness
	}
	return inj, inj.Validate()
}

// cbrScale is the fixed-point denominator of the CBR accumulator. Using
// exact integer arithmetic (instead of a float accumulator) makes a
// window of n idle cycles algebraically identical to n single cycles,
// which the event kernel's fast-forward replay depends on.
const cbrScale = 1 << 32

// Sampler draws the inter-arrival gaps of one configured process. It is
// deterministic given its seed, and every draw happens at an arrival —
// never once per cycle — so the sequence of gaps is independent of the
// simulation kernel.
type Sampler struct {
	inj Injection
	rng *bitvec.XorShift64

	cbrNum uint64 // rate in 1/cbrScale words per cycle
	cbrAcc uint64 // fractional word accumulator, < cbrScale

	burstLeft uint64 // words remaining in the current on-off burst
}

// NewSampler returns a sampler for the injection, seeded independently
// per flow: the same (injection, seed) pair always produces the same
// gap sequence.
func NewSampler(inj Injection, seed uint64) *Sampler {
	if err := inj.Validate(); err != nil {
		panic(err)
	}
	num := uint64(math.Round(inj.Rate * cbrScale))
	if num == 0 {
		num = 1
	}
	if num > cbrScale {
		num = cbrScale
	}
	return &Sampler{
		inj:    inj,
		rng:    bitvec.NewXorShift64(sweep.Mix64(seed ^ 0x494E4A454354)), // "INJECT"
		cbrNum: num,
	}
}

// NextGap returns the number of cycles from the previous arrival to the
// next one (>= 1).
func (s *Sampler) NextGap() uint64 {
	switch s.inj.Proc {
	case CBR:
		// Cycles until the accumulator crosses one whole word:
		// ceil((scale-acc)/num), all in exact integer arithmetic.
		gap := (cbrScale - s.cbrAcc + s.cbrNum - 1) / s.cbrNum
		s.cbrAcc = s.cbrAcc + gap*s.cbrNum - cbrScale
		return gap
	case Bernoulli:
		return geometricGap(s.rng, s.inj.Rate)
	case Poisson:
		// ceil(Exp(rate)) is exactly Geometric(1 - e^-rate).
		return geometricGap(s.rng, 1-math.Exp(-s.inj.Rate))
	case OnOff:
		if s.burstLeft > 0 {
			s.burstLeft--
			return 1
		}
		// Between bursts: a geometric silence whose mean makes the
		// long-run rate come out to Rate, then a new geometric burst.
		b := s.inj.Burstiness
		meanOff := b * (1 - s.inj.Rate) / s.inj.Rate
		gap := geometricGap(s.rng, 1/(meanOff+1))
		s.burstLeft = geometricGap(s.rng, 1/b) - 1
		return gap
	default:
		panic(fmt.Sprintf("pattern: unknown process %d", int(s.inj.Proc)))
	}
}

// geometricGap draws a geometric inter-arrival gap (support 1,2,...)
// with success probability p, by inversion of the exponential tail.
func geometricGap(rng *bitvec.XorShift64, p float64) uint64 {
	if p >= 1 {
		return 1
	}
	u := rng.Float64()
	// Guard the open interval: Float64 may return 0.
	for u == 0 {
		u = rng.Float64()
	}
	g := 1 + uint64(math.Floor(math.Log(u)/math.Log(1-p)))
	if g < 1 {
		g = 1
	}
	return g
}
