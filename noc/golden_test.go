package noc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestResultGoldens pins the exact bytes of Result.JSON for a fixed table
// of runs: the paper's four scenarios on every fabric (and on the circuit
// fabric with clock gating), an 8×8 uniform circuit mesh, an 8×8 hotspot
// pattern on every fabric, one non-default lane, VC/buffer-depth and
// slot count per fabric (8 TDM slots on scenario IV, 4 on the uniform
// pattern, where the table admits 13 of its 16 flows), the uniform
// pattern with an explicit and an MSER-detected warm-up on every fabric
// (plus one replicated run, which pins latency_pooled), and two
// CCN-mapped workload runs at 100 MHz — UMTS on 4×3, and HiperLAN/2 plus
// UMTS sharing a 6×4 mesh with ganged 2-lane paths — each of which must
// meet every channel's requirement. The
// kernel and cache equivalence tests compare paths that share the same
// router code, so a datapath change that flips one bit of a power figure
// passes them; this table does not.
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
	uniform, hotspot := uniformCBR(), hotspotCBR()
	warm := func(cycles int, auto bool, reps int) Scenario {
		sc := uniformCBR()
		sc.WarmupCycles, sc.WarmupAuto, sc.Replications = cycles, auto, reps
		return sc
	}
	workload := func(name string, w, h int, apps ...string) Scenario {
		return Scenario{Name: name, Workloads: apps, MeshWidth: w, MeshHeight: h,
			FreqMHz: 100, Cycles: 2000}
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
		{"aethereal-slots8/IV", AetherealTDM(WithSlots(8)), paper("IV"),
			"ec44f4f413a303dba33dc0cf0bafc1f2f217ea1e1cfdebe38115cc73f33924da"},
		{"aethereal-slots4/uniform-cbr", AetherealTDM(WithSlots(4)), uniform,
			"e61387a965645271d1b5edc1adce591fcad02e522fd381ef24a259b7a5856908"},
		{"packet-vcs3-depth2/IV", PacketSwitched(WithVirtualChannels(3), WithBufferDepth(2)), paper("IV"),
			"d3be9364331659d6319121eb9dab0bc3218dcae42b83480bea07d9c1e39ef7e0"},
		{"circuit-lanes3/IV", CircuitSwitched(WithLanes(3)), paper("IV"),
			"151d07fafdebcab1a7d3b9590ab167ec56b16f0ff2b48ffb13aac127dc46c171"},
		{"circuit/uniform-cbr-warmup200", CircuitSwitched(), warm(200, false, 0),
			"108df3dda0d50ff46b6650d92a463c3bdf83986bb48308b6101b775fff75543c"},
		{"circuit/uniform-cbr-warmup-auto", CircuitSwitched(), warm(0, true, 0),
			"45ea5253b973028316805b7467489ac8178528faaed258661792d53f917137f6"},
		{"packet/uniform-cbr-warmup200", PacketSwitched(), warm(200, false, 0),
			"2059a0fcb48616db46f86845a184032e271abc7e9229136f61323179f0edec75"},
		{"packet/uniform-cbr-warmup-auto", PacketSwitched(), warm(0, true, 0),
			"2bc5afcd2d05727ddff04200f54045f0bf7ec46cdcfde20363fab8474f416356"},
		{"aethereal/uniform-cbr-warmup200", AetherealTDM(), warm(200, false, 0),
			"9dfd2d6d3956a743bfb0ca8095cbe33ff9314eb0ee5025382cdbfab4b4f7d8b5"},
		{"aethereal/uniform-cbr-warmup-auto", AetherealTDM(), warm(0, true, 0),
			"cd344437c84ccc7d6a090925dc9f446489a6d8b91a1c721714d3012ae3cd98f8"},
		{"circuit/uniform-cbr-warmup-auto-reps2", CircuitSwitched(), warm(0, true, 2),
			"ca8cc25adcddeeaf8fa69ddd044774ab3e3b9debd91a046a5a8f1a87c30a12d2"},
		{"circuit/umts-4x3", CircuitSwitched(), workload("umts-4x3", 4, 3, "umts"),
			"8ec42deda0b23e09d971001931045b5168b9fc4482273e7bab04fdc664b69754"},
		{"circuit/hiperlan2,umts-6x4", CircuitSwitched(),
			workload("hiperlan2,umts-6x4", 6, 4, "hiperlan2", "umts"),
			"0632fc9e1cb1e0804d499bfeaa66e55251358917e1152000443ab2aa16131c94"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.fabric.Run(c.sc)
			if err != nil {
				t.Fatal(err)
			}
			if c.sc.IsWorkload() && !r.MetAllRequirements() {
				t.Errorf("a guaranteed-throughput channel missed its requirement: %+v", r.Channels)
			}
			b, err := r.JSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("Result.JSON sha256 = %s, want %s", got, c.want)
			}
		})
	}
}

// TestAllocMetricsGolden pins the circuit mesh's lane-allocator
// instruments on two TestResultGoldens rows: the route probes, rejected
// flows and hop histogram of the established routes. hotspot-cbr rejects
// almost every flow at its endpoints; uniform-cbr establishes all 64
// flows, one of them on its YX fallback route. The instruments are
// off-wire (Result.Metrics), so the Result digests do not cover them.
func TestAllocMetricsGolden(t *testing.T) {
	counter := func(name string, v int64) obs.Sample {
		return obs.Sample{Name: name, Kind: "counter", Value: v}
	}
	cases := []struct {
		sc   Scenario
		want []obs.Sample
	}{
		{hotspotCBR(), []obs.Sample{
			{Name: "mesh.alloc.hops", Kind: "histogram", Value: 5, Sum: 31,
				Buckets: []obs.Bucket{{Le: 7, Count: 4}, {Le: 15, Count: 1}}},
			counter("mesh.alloc.probes", 5),
			counter("mesh.alloc.rejections", 59),
		}},
		{uniformCBR(), []obs.Sample{
			{Name: "mesh.alloc.hops", Kind: "histogram", Value: 64, Sum: 358,
				Buckets: []obs.Bucket{{Le: 1, Count: 3}, {Le: 3, Count: 15}, {Le: 7, Count: 29}, {Le: 15, Count: 17}}},
			counter("mesh.alloc.probes", 65),
			counter("mesh.alloc.rejections", 0),
		}},
	}
	for _, c := range cases {
		res, err := CircuitSwitched(WithMetrics(true)).Run(c.sc)
		if err != nil {
			t.Fatal(err)
		}
		var got []obs.Sample
		for _, s := range res.Metrics {
			if strings.HasPrefix(s.Name, "mesh.alloc.") {
				got = append(got, s)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: mesh.alloc metrics\n got %+v\nwant %+v", c.sc.Name, got, c.want)
		}
	}
}

// uniformCBR and hotspotCBR are TestResultGoldens' 8×8 pattern rows.
func uniformCBR() Scenario {
	return Scenario{
		Name: "uniform-cbr", Pattern: "uniform", MeshWidth: 8, MeshHeight: 8,
		Cycles: 500, Seed: 1, Injection: &Injection{Process: "cbr", Rate: 0.3},
	}
}

func hotspotCBR() Scenario {
	return Scenario{
		Name: "hotspot-cbr", Pattern: "hotspot:1", MeshWidth: 8, MeshHeight: 8,
		Cycles: 500, Seed: 2, Injection: &Injection{Process: "cbr", Rate: 0.05},
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
