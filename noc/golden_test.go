package noc

import (
	"bytes"
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

// TestExperimentGoldens pins the exact text of every registered
// experiment, as RunExperiment renders it: the paper evaluation that
// nocbench prints with no flags. The packet-switched and TDM comparators,
// the best-effort configuration network and the mesh mapper all feed
// these tables and figures, so a change to any of them that moves one
// printed digit fails here. The outputs concatenated in this order are
// exactly nocbench's default output; paperEvalDigest pins that too.
//
// A deliberate change to an experiment's output updates its digest and
// paperEvalDigest in the same commit, with the reason.
func TestExperimentGoldens(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on linux/amd64; other architectures may fuse multiply-adds and round power figures differently")
	}
	const paperEvalDigest = "cc3cca5c937affd644b83d17907051268a610e40a8cd445b0149a47398bdd64a"
	want := []struct{ id, sum string }{
		{"apps", "f6d3adc6b7b13cf4c2edd6e54b81121883429dd13790fa34d76f3fc39df2a9a6"},
		{"beload", "41eb94a9c1b166900856d7e9a9a7468454ea43be4e1322f4ae2cf5c404e4172c"},
		{"crossover", "d92f8ccb937752a962d5db398429bd3bce6ad96c4034b1ed9912f5f9cade99f1"},
		{"fig10", "a69106ed27faf0106782e2349db87250334294e797dc27b10ce326dcb97798bc"},
		{"fig9", "13cd594089e7fec1a4da7b1708e4ee95f6ff3d51870af387b6d281315bacdac4"},
		{"fig9gated", "364bda0aa256bb0c53074f11f1a3f923ab5e4a83aa45e84138023da4b3f1785b"},
		{"freqsweep", "4c6656b974a494ef636fc93a6a028f8e0a98fc8ef50aa16368c7512c81f75572"},
		{"lanes", "e8eb238e38c0fd29a67030e2915542ddc5b60467a7a83c3c736d0c707d2ce31f"},
		{"latency", "99023301f7ee9dedffd25d97d5f0b21eef09ca3347e1a8947502cf7948e880c4"},
		{"meshpower", "e58eb27c5c78d2de99fd7a299f1378cb7fbaf192a1914543137c215653bf49b4"},
		{"multicast", "7fa9bc3ecaed7ffec996dbdefb9f949bd18f919b66046f196c59d1b1bf5bbe66"},
		{"psdepth", "fcee9ff5b5136f26a0fe4b8a43652228fca1d8f87ab5a927f4457215df87fd2e"},
		{"schedule", "ab1844623de8360e91ef4aea25bcb0711b6d9012ce640a064100bc454010ebea"},
		{"setup", "d20883d70c2c7dd3cd73082e0572275cd00c1b6940a12aaae56d53277aa9a85e"},
		{"table1", "ea7e6e986d79823dccef3b19125a5c62c95e395b065eae06470535bd70fbe035"},
		{"table2", "565170ee416f16aa407c08e71739e0c30ac3271aa9e0656453fe423ed3e187ae"},
		{"table3", "6ca011339b63aa427a7ffc94ee8c843faa28fed9721fdd490afd9c5a9e0d432d"},
		{"table4", "ae4ee0c00a9df67963c4e6a498addc5849280f00ae554b96179ee93f5b9cbe02"},
		{"window", "fd64b1a1904a31d22b019cbe238c6bf1bb8e8b33f06a3065f936d5893efe9bca"},
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("%d experiments registered, %d pinned", len(exps), len(want))
	}
	all := sha256.New()
	for i, e := range exps {
		if e.ID != want[i].id {
			t.Fatalf("experiment %d is %q, pinned %q", i, e.ID, want[i].id)
		}
		var b bytes.Buffer
		if err := RunExperiment(&b, e.ID); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		all.Write(b.Bytes())
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[i].sum {
			t.Errorf("%s: text sha256 = %s, want %s", e.ID, got, want[i].sum)
		}
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != paperEvalDigest {
		t.Errorf("concatenated text sha256 = %s, want %s", got, paperEvalDigest)
	}
}
