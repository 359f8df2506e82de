package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestResultGoldens pins the exact bytes of Result.JSON for a fixed table
// of runs: the paper's four scenarios on every fabric (and on the circuit
// fabric with clock gating), an 8×8 uniform circuit mesh and an 8×8
// hotspot pattern on every fabric. The kernel and cache equivalence tests
// compare paths that share the same router code, so a datapath change
// that flips one bit of a power figure passes them; this table does not.
// Pattern runs use the cbr process, whose arrival times are exact fixed
// point, so the digests do not depend on math.Log across Go releases.
//
// A deliberate change to simulated results updates these digests in the
// same commit, with the reason.
func TestResultGoldens(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on linux/amd64; other architectures may fuse multiply-adds and round power figures differently")
	}
	type golden struct {
		name   string
		fabric Fabric
		sc     Scenario
		want   string
	}
	paper := func(name string) Scenario {
		sc, err := PaperScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Cycles = 400
		return sc
	}
	uniform := Scenario{
		Name: "uniform-cbr", Pattern: "uniform", MeshWidth: 8, MeshHeight: 8,
		Cycles: 500, Seed: 1, Injection: &Injection{Process: "cbr", Rate: 0.3},
	}
	hotspot := Scenario{
		Name: "hotspot-cbr", Pattern: "hotspot:1", MeshWidth: 8, MeshHeight: 8,
		Cycles: 500, Seed: 2, Injection: &Injection{Process: "cbr", Rate: 0.05},
	}
	cases := []golden{
		{"circuit/I", CircuitSwitched(), paper("I"),
			"020f401b11eb15c288ec34b335ededc849651a878e4e19e524a6038316483eb0"},
		{"circuit/II", CircuitSwitched(), paper("II"),
			"7fb043c8c9467b261d35a628a8ecb785b2cded01955a403e4d26b8f929cc7d7c"},
		{"circuit/III", CircuitSwitched(), paper("III"),
			"b927a7309af39532b4331f177ef8a39f06a47cbadb6b2d2525a703a373acdacb"},
		{"circuit/IV", CircuitSwitched(), paper("IV"),
			"1b49b319ef9dc9b43cb1cfd35bc85b1a07fe51e78c5d4d5a8600353528e17f8e"},
		{"circuit-gated/I", CircuitSwitched(WithClockGating(true)), paper("I"),
			"c11634bc4eacdd38f0314a20cc3711f0f37ae245729c7377a34278878792cf0f"},
		{"circuit-gated/II", CircuitSwitched(WithClockGating(true)), paper("II"),
			"27ea04c47be0058c71c016390121de30ffcde6d7a52a1831a88318e569de40fb"},
		{"circuit-gated/III", CircuitSwitched(WithClockGating(true)), paper("III"),
			"e1c4fb3d13a2ca127d411108b96e691f89e9f1e24c0379e26912877e523817aa"},
		{"circuit-gated/IV", CircuitSwitched(WithClockGating(true)), paper("IV"),
			"ac50f7f0cb4bdca24b729a1ac1171067a2122dd4da319ae1babe82ea42a8a6e7"},
		{"packet/I", PacketSwitched(), paper("I"),
			"42bf67e9512760453f5dc8b7ae96504592daf9ac66574f2b0afabecf82d684ab"},
		{"packet/II", PacketSwitched(), paper("II"),
			"a984adc335fb88c8b8db89d0d4e4d34344d8862cadc0c346982c6da3bfd63067"},
		{"packet/III", PacketSwitched(), paper("III"),
			"16c1a143994799d384952bb2841935af6aa3bf33799ac7665330995a437ec5b4"},
		{"packet/IV", PacketSwitched(), paper("IV"),
			"ef70d9b4fd4947fc2c39a88390671c09eec50974cd3169ded2b36f2bc6ee984b"},
		{"aethereal/I", AetherealTDM(), paper("I"),
			"bb078b8fe993543efc074f9a77a1e14e8b78e7080d501a8cc0ab5df892c6a027"},
		{"aethereal/II", AetherealTDM(), paper("II"),
			"781c7ada85f64238a842067f5711eb7b37f6ba3fe5ee70c0fa324a22db498812"},
		{"aethereal/III", AetherealTDM(), paper("III"),
			"c239f71e6352c3d5d5c67d6374b13665bb17a0f0b23f94d90b47cce782d20988"},
		{"aethereal/IV", AetherealTDM(), paper("IV"),
			"9d335f25de37d2fe1e2e735c111c2b94f900f5724ef1e9e1d8a0ad8f7dfc1571"},
		{"circuit/uniform-cbr", CircuitSwitched(), uniform,
			"495364ecb40c5eb20771cd885c2f3887dbd8c66543d315bdd4f4d79c5d52f7f9"},
		{"circuit/hotspot-cbr", CircuitSwitched(), hotspot,
			"4385d7bf378f6492d0d556dbf05b7dbc4ee927801f430d1849efd4aba902af83"},
		{"packet/hotspot-cbr", PacketSwitched(), hotspot,
			"aff11392fbe6a82d39c7509c846733cd19387093fbedc214a6160fd58dbf9dbc"},
		{"aethereal/hotspot-cbr", AetherealTDM(), hotspot,
			"4c9253d8e38324a2dd250a423c37246f057f8828690f722e2f2ea21ab664eeec"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.Sum256(runJSON(t, c.fabric, c.sc))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("Result.JSON sha256 = %s, want %s", got, c.want)
			}
		})
	}
}
