package traffic

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stdcell"
)

var lib = stdcell.Default013()

func TestPaperStreamsMatchTable3(t *testing.T) {
	s := PaperStreams()
	if len(s) != 3 {
		t.Fatalf("streams = %d, want 3", len(s))
	}
	want := []Stream{
		{ID: 1, In: core.Tile, Out: core.East},
		{ID: 2, In: core.North, Out: core.Tile},
		{ID: 3, In: core.West, Out: core.East},
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("stream %d = %v, want %v (Table 3)", i+1, s[i], want[i])
		}
	}
}

func TestScenariosMatchFig8(t *testing.T) {
	sc := Scenarios()
	if len(sc) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(sc))
	}
	wantCounts := []int{0, 1, 2, 3}
	wantNames := []string{"I", "II", "III", "IV"}
	for i := range sc {
		if sc[i].Name != wantNames[i] {
			t.Errorf("scenario %d named %q, want %q", i, sc[i].Name, wantNames[i])
		}
		if len(sc[i].Streams) != wantCounts[i] {
			t.Errorf("scenario %s has %d streams, want %d",
				sc[i].Name, len(sc[i].Streams), wantCounts[i])
		}
	}
	// Scenario IV must contain the East-port collision pair.
	iv := sc[3]
	east := 0
	for _, s := range iv.Streams {
		if s.Out == core.East {
			east++
		}
	}
	if east != 2 {
		t.Fatalf("scenario IV has %d East-bound streams, want 2 (streams 1 and 3)", east)
	}
}

func TestPatternValidate(t *testing.T) {
	for _, bad := range []Pattern{
		{FlipProb: -0.1, Load: 1}, {FlipProb: 1.1, Load: 1},
		{FlipProb: 0.5, Load: -1}, {FlipProb: 0.5, Load: 2},
	} {
		if bad.Validate() == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
	if (Pattern{FlipProb: 0.5, Load: 1}).Validate() != nil {
		t.Error("rejected valid pattern")
	}
}

func TestBitFlipCases(t *testing.T) {
	c := BitFlipCases()
	if len(c) != 3 || c[0] != 0 || c[1] != 0.5 || c[2] != 1 {
		t.Fatalf("bit-flip cases = %v, want [0 0.5 1]", c)
	}
}

func TestSourceLoadGate(t *testing.T) {
	full := NewSource(Pattern{FlipProb: 0.5, Load: 1}, 1)
	for i := 0; i < 100; i++ {
		if _, ok := full.Offer(); !ok {
			t.Fatal("full-load source declined")
		}
	}
	half := NewSource(Pattern{FlipProb: 0.5, Load: 0.5}, 1)
	granted := 0
	for i := 0; i < 10000; i++ {
		if _, ok := half.Offer(); ok {
			granted++
		}
	}
	if granted < 4700 || granted > 5300 {
		t.Fatalf("half-load source granted %d/10000", granted)
	}
	if half.Sent() != uint64(granted) {
		t.Fatal("Sent counter out of sync")
	}
}

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(Pattern{FlipProb: 0.5, Load: 1}, 7), NewSource(Pattern{FlipProb: 0.5, Load: 1}, 7)
	for i := 0; i < 100; i++ {
		wa, _ := a.Offer()
		wb, _ := b.Offer()
		if wa != wb {
			t.Fatal("same stream id diverged")
		}
	}
	c := NewSource(Pattern{FlipProb: 0.5, Load: 1}, 8)
	same := 0
	a = NewSource(Pattern{FlipProb: 0.5, Load: 1}, 7)
	for i := 0; i < 100; i++ {
		wa, _ := a.Offer()
		wc, _ := c.Offer()
		if wa == wc {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different streams collide: %d/100", same)
	}
}

func TestSourceZeroFlipsIsAllZeros(t *testing.T) {
	s := NewSource(Pattern{FlipProb: 0, Load: 1}, 1)
	for i := 0; i < 50; i++ {
		w, _ := s.Offer()
		if w.Data != 0 {
			t.Fatal("best case must transmit only zeros")
		}
		if !w.Valid() {
			t.Fatal("words must carry VALID")
		}
	}
}

func TestRunConfigValidate(t *testing.T) {
	if (RunConfig{Cycles: 0, FreqMHz: 25}).Validate() == nil {
		t.Error("zero cycles accepted")
	}
	for _, f := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := DefaultRunConfig(lib)
		c.FreqMHz = f
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "FreqMHz") {
			t.Errorf("FreqMHz %v: error %v, want one naming FreqMHz", f, err)
		}
	}
	if DefaultRunConfig(lib).Validate() != nil {
		t.Error("default config rejected")
	}
	if DefaultRunConfig(lib).Cycles != 5000 {
		t.Error("default is the paper's 5000 cycles (200 µs at 25 MHz)")
	}
}

func TestRunCircuitScenarioII(t *testing.T) {
	cfg := DefaultRunConfig(lib)
	cfg.Cycles = 2000
	res, err := RunCircuit(Scenarios()[1], Pattern{FlipProb: 0.5, Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 1 runs Tile->East at one word per 5 cycles.
	if res.WordsSent < 350 || res.WordsSent > 405 {
		t.Fatalf("words sent = %d, want ~400 (1 per 5 cycles)", res.WordsSent)
	}
	if res.Power.TotalUW() <= 0 {
		t.Fatal("no power estimated")
	}
}

func TestRunCircuitScenarioIIIDelivers(t *testing.T) {
	cfg := DefaultRunConfig(lib)
	cfg.Cycles = 2000
	res, err := RunCircuit(Scenarios()[2], Pattern{FlipProb: 0.5, Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 2 terminates at the tile: its words are observable.
	if res.WordsDelivered < 300 {
		t.Fatalf("delivered only %d words end to end", res.WordsDelivered)
	}
}

func TestRunCircuitScenarioOrderingByPower(t *testing.T) {
	// More concurrent streams => more dynamic power, monotonically
	// (the paper's "number of data streams" observation).
	cfg := DefaultRunConfig(lib)
	cfg.Cycles = 2000
	var prev float64 = -1
	for _, sc := range Scenarios() {
		res, err := RunCircuit(sc, Pattern{FlipProb: 0.5, Load: 1}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Power.DynamicUW() < prev {
			t.Fatalf("dynamic power not monotone at scenario %s", sc.Name)
		}
		prev = res.Power.DynamicUW()
	}
}

func TestRunPacketScenarioII(t *testing.T) {
	cfg := DefaultRunConfig(lib)
	cfg.Cycles = 2000
	res, err := RunPacket(Scenarios()[1], Pattern{FlipProb: 0.5, Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WordsSent < 350 || res.WordsSent > 405 {
		t.Fatalf("words sent = %d, want ~400", res.WordsSent)
	}
	if res.Power.TotalUW() <= 0 {
		t.Fatal("no power estimated")
	}
}

func TestRunPacketDeliversToTile(t *testing.T) {
	cfg := DefaultRunConfig(lib)
	cfg.Cycles = 3000
	res, err := RunPacket(Scenarios()[2], Pattern{FlipProb: 0.5, Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 2 (North->Tile) delivers ~1 word per 5 cycles minus packet
	// framing latency.
	if res.WordsDelivered < 400 {
		t.Fatalf("delivered %d words, want ~550", res.WordsDelivered)
	}
}

func TestPaperHeadlinePowerRatio(t *testing.T) {
	// The conclusion's headline: "The proposed architecture consumes 3.5
	// times less energy compared to its packet-switched equivalent."
	// Scenario-averaged total power at 25 MHz, random data, 100% load.
	cfg := DefaultRunConfig(lib)
	cfg.Cycles = 2500
	pat := Pattern{FlipProb: 0.5, Load: 1}
	var cs, ps float64
	for _, sc := range Scenarios() {
		rc, err := RunCircuit(sc, pat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := RunPacket(sc, pat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs += rc.Power.TotalUW()
		ps += rp.Power.TotalUW()
	}
	ratio := ps / cs
	if ratio < 3.5*0.75 || ratio > 3.5*1.25 {
		t.Fatalf("power ratio PS/CS = %.2f, paper 3.5 (±25%%)", ratio)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cfg := DefaultRunConfig(lib)
	if _, err := RunCircuit(Scenarios()[0], Pattern{FlipProb: 2, Load: 1}, cfg); err == nil {
		t.Error("bad pattern accepted by RunCircuit")
	}
	if _, err := RunPacket(Scenarios()[0], Pattern{FlipProb: 2, Load: 1}, cfg); err == nil {
		t.Error("bad pattern accepted by RunPacket")
	}
	bad := cfg
	bad.Cycles = 0
	if _, err := RunCircuit(Scenarios()[0], Pattern{Load: 1}, bad); err == nil {
		t.Error("bad config accepted")
	}
	// A stream id beyond the lane count must error, not panic.
	weird := Scenario{Name: "X", Streams: []Stream{{ID: 9, In: core.Tile, Out: core.East}}}
	if _, err := RunCircuit(weird, Pattern{Load: 1}, cfg); err == nil {
		t.Error("impossible stream accepted")
	}
	if _, err := RunPacket(weird, Pattern{Load: 1}, cfg); err == nil {
		t.Error("impossible stream accepted by RunPacket")
	}
}

func TestGatedRunReducesIdlePower(t *testing.T) {
	cfg := DefaultRunConfig(lib)
	cfg.Cycles = 1500
	idle := Scenarios()[0]
	ungated, err := RunCircuit(idle, Pattern{Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Gated = true
	gated, err := RunCircuit(idle, Pattern{Load: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gated.Power.DynamicUW() >= ungated.Power.DynamicUW()/3 {
		t.Fatalf("gating saved too little: %.1f vs %.1f µW",
			gated.Power.DynamicUW(), ungated.Power.DynamicUW())
	}
}
