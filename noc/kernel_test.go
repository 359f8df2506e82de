package noc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// kernelCase builds the same fabric twice, once per kernel.
type kernelCase struct {
	name  string
	build func(k Kernel) Fabric
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{"circuit", func(k Kernel) Fabric { return CircuitSwitched(WithKernel(k)) }},
		{"circuit-gatedclock", func(k Kernel) Fabric {
			return CircuitSwitched(WithKernel(k), WithClockGating(true))
		}},
		{"packet", func(k Kernel) Fabric { return PacketSwitched(WithKernel(k)) }},
		{"tdm", func(k Kernel) Fabric { return AetherealTDM(WithKernel(k)) }},
	}
}

// allKernels is the equivalence set: the naive oracle is the reference,
// and the production kernel must match it byte for byte.
var allKernels = []Kernel{KernelNaive, KernelActive}

// TestKernelEquivalenceScenarios: the production kernel must produce
// byte-identical Result JSON to the naive kernel on every paper
// scenario, every fabric, with and without the clock-gating ablation —
// the contract the CI naive-vs-default byte-compare enforces end to end.
// A finite variant (WordsPerStream) adds the retired-source case, where
// the production kernel fast-forwards the drained tail.
func TestKernelEquivalenceScenarios(t *testing.T) {
	scenarios := PaperScenarios()
	finite, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	finite.Name = "IV-finite"
	finite.WordsPerStream = 60
	scenarios = append(scenarios, finite)
	for _, sc := range scenarios {
		sc := sc
		sc.Cycles = 1500 // full-length runs belong to nocbench
		for _, c := range kernelCases() {
			var ref []byte
			for _, k := range allKernels {
				res, err := c.build(k).Run(sc)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", c.name, sc.Name, k, err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = b
					continue
				}
				if !bytes.Equal(ref, b) {
					t.Errorf("%s / scenario %s: kernels disagree\n%s: %s\n%s: %s",
						c.name, sc.Name, allKernels[0], ref, k, b)
				}
			}
		}
	}
}

// TestPacketStreamOrder: a neighbour-fed stream listed before a
// tile-injected one runs under both kernels with the same bytes. The
// neighbour port's feeder latches its register in Commit, so a router
// that the tile injector wakes late in the cycle samples the same flit
// as one evaluated in its own slot.
func TestPacketStreamOrder(t *testing.T) {
	sc := Scenario{Name: "order", Streams: []Stream{
		{ID: 1, In: East, Out: Tile},
		{ID: 2, In: Tile, Out: West},
	}}
	naive := runJSON(t, PacketSwitched(WithKernel(KernelNaive)), sc)
	active := runJSON(t, PacketSwitched(), sc)
	if !bytes.Equal(naive, active) {
		t.Fatalf("kernels disagree\nnaive:  %s\nactive: %s", naive, active)
	}
	var res Result
	if err := json.Unmarshal(active, &res); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%d %d %.3f", res.WordsSent, res.WordsDelivered, res.Power.TotalUW); got != "2000 999 1320.388" {
		t.Errorf("words sent, delivered and total µW = %s, want 2000 999 1320.388", got)
	}
}

// TestPacketSharedInputPort: two streams entering one neighbour port
// share its feeder register, so both arrive — the tile-bound one is
// observed end to end.
func TestPacketSharedInputPort(t *testing.T) {
	sc := Scenario{Name: "shared", Streams: []Stream{
		{ID: 1, In: North, Out: Tile},
		{ID: 2, In: North, Out: East},
	}}
	res, err := PacketSwitched().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.WordsSent != 2000 || res.WordsDelivered != 999 {
		t.Errorf("sent %d, delivered %d words; want 2000 sent and stream 1's 999 delivered",
			res.WordsSent, res.WordsDelivered)
	}
}

// TestKernelEquivalenceWorkload runs a mesh workload (CCN mapping, bound
// power meters, gang drivers) under both kernels and compares the full
// Result JSON — the path where idle routers dominate and skipping pays
// most.
func TestKernelEquivalenceWorkload(t *testing.T) {
	sc := Scenario{
		Name:      "kernel-workload",
		Workloads: []string{"drm"},
		Cycles:    2500,
	}
	out := make([][]byte, len(allKernels))
	for i, k := range allKernels {
		res, err := CircuitSwitched(WithKernel(k)).Run(sc)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	for i := 1; i < len(out); i++ {
		if !bytes.Equal(out[0], out[i]) {
			t.Errorf("workload results diverge\n%s: %s\n%s: %s",
				allKernels[0], out[0], allKernels[i], out[i])
		}
	}
}

// TestKernelEquivalenceWaveform: waveform capture (trace recorder sampling
// every cycle while the assembly sleeps until its configuration write)
// must render identically — the recorder is a monitor and monitors are
// never skipped.
func TestKernelEquivalenceWaveform(t *testing.T) {
	wf, err := CaptureWaveform()
	if err != nil {
		t.Fatal(err)
	}
	if wf.Cycles == 0 || len(wf.VCD) == 0 {
		t.Fatal("empty capture under the production kernel")
	}
	// The capture must show the word serializing on both probes: skipping
	// the assembly before its cycle-2 configuration must not lose edges.
	for _, sig := range wf.Signals {
		if sig.Transitions == 0 {
			t.Errorf("probe %s recorded no transitions under the production kernel", sig.Name)
		}
	}
}

// TestParseKernel covers the kernel name resolution used by nocbench and
// the sweep spec: the empty string selects the production-kernel
// default, every name round-trips, and unknown names — the retired
// kernel names "gated" and "event" among them — are rejected with an
// error that lists the valid kernels.
func TestParseKernel(t *testing.T) {
	for _, s := range []string{"", "active"} {
		k, err := ParseKernel(s)
		if err != nil || k != KernelActive {
			t.Fatalf("ParseKernel(%q) = %v, %v (active is the default)", s, k, err)
		}
	}
	if k, err := ParseKernel("naive"); err != nil || k != KernelNaive {
		t.Fatalf("ParseKernel(naive) = %v, %v", k, err)
	}
	for _, s := range []string{"gated", "event"} {
		if k, err := ParseKernel(s); err == nil {
			t.Errorf("ParseKernel(%q) = %v, want an error", s, k)
		}
	}
	_, err := ParseKernel("warp")
	if err == nil {
		t.Fatal("ParseKernel accepted an unknown kernel")
	}
	for _, name := range []string{"active", "naive"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseKernel error %q does not list %q", err, name)
		}
	}
	if err := CircuitSwitched(WithKernel("warp")).Validate(); err == nil {
		t.Fatal("Validate accepted an unknown kernel option")
	}
}

// TestSweepSpecRejectsUnknownKernel: a typoed kernel in the sweep spec
// fails validation instead of silently running the default, and a
// fabric spec has no kernel: the kernel changes no Result byte, so it
// is the sweep's, not a cell's.
func TestSweepSpecRejectsUnknownKernel(t *testing.T) {
	spec := SweepSpec{Kernel: "warp"}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("spec-level kernel: Validate() = %v", err)
	}
	fabricLevel := `{"fabrics":[{"kind":"circuit","kernel":"naive"}]}`
	if _, err := ParseSweepSpec([]byte(fabricLevel)); err == nil || !strings.Contains(err.Error(), `unknown field "kernel"`) {
		t.Fatalf("ParseSweepSpec(%s) = %v, want an unknown-field error", fabricLevel, err)
	}
	for _, k := range []string{"warp", "gated", "event"} {
		spec := fmt.Sprintf(`{"kernel":%q}`, k)
		if _, err := ParseSweepSpec([]byte(spec)); err == nil || !strings.Contains(err.Error(), k) {
			t.Errorf("ParseSweepSpec(%s) = %v, want an error naming the kernel", spec, err)
		}
	}
}

// TestPerComponentPowerSums: the per-component attribution of every
// fabric — activity classes for single-router runs, per-router meters
// for workload runs — must sum (within float tolerance) to the
// assembly-level total, and be deterministically ordered.
func TestPerComponentPowerSums(t *testing.T) {
	sc, err := PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	sc.Cycles = 1500
	runs := []struct {
		name string
		f    Fabric
		sc   Scenario
	}{
		{"circuit", CircuitSwitched(), sc},
		{"circuit-gated", CircuitSwitched(WithClockGating(true)), sc},
		{"packet", PacketSwitched(), sc},
		{"tdm", AetherealTDM(), sc},
		{"workload", CircuitSwitched(), Scenario{
			Name: "wl", Workloads: []string{"drm"}, Cycles: 2000}},
	}
	for _, r := range runs {
		res, err := r.f.Run(r.sc)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(res.PerComponent) == 0 {
			t.Fatalf("%s: no per-component attribution", r.name)
		}
		var sum float64
		for _, c := range res.PerComponent {
			if c.TotalUW != c.StaticUW+c.DynamicUW {
				t.Errorf("%s/%s: total %v != static %v + dynamic %v",
					r.name, c.Component, c.TotalUW, c.StaticUW, c.DynamicUW)
			}
			sum += c.TotalUW
		}
		if tot := res.Power.TotalUW; sum < tot*(1-1e-9) || sum > tot*(1+1e-9) {
			t.Errorf("%s: per-component sum %v != assembly total %v", r.name, sum, tot)
		}
	}
}
