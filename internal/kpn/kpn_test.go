package kpn

import (
	"math"
	"testing"
)

func valid() *Graph {
	return &Graph{
		Name: "test",
		Processes: []Process{
			{Name: "a"}, {Name: "b"}, {Name: "c"},
		},
		Channels: []Channel{
			{Name: "ab", From: "a", To: "b", BandwidthMbps: 100, Class: GT},
			{Name: "bc", From: "b", To: "c", BandwidthMbps: 50, Class: GT},
			{Name: "ctl", From: "c", To: "a", BandwidthMbps: 1, Class: BE},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Graph){
		"no name":        func(g *Graph) { g.Name = "" },
		"no processes":   func(g *Graph) { g.Processes = nil },
		"empty process":  func(g *Graph) { g.Processes[0].Name = "" },
		"dup process":    func(g *Graph) { g.Processes[1].Name = "a" },
		"unknown from":   func(g *Graph) { g.Channels[0].From = "zz" },
		"unknown to":     func(g *Graph) { g.Channels[0].To = "zz" },
		"self loop":      func(g *Graph) { g.Channels[0].To = "a" },
		"zero bandwidth": func(g *Graph) { g.Channels[0].BandwidthMbps = 0 },
		"neg bandwidth":  func(g *Graph) { g.Channels[0].BandwidthMbps = -1 },
		"NaN bandwidth":  func(g *Graph) { g.Channels[0].BandwidthMbps = math.NaN() },
		"+Inf bandwidth": func(g *Graph) { g.Channels[0].BandwidthMbps = math.Inf(1) },
		"-Inf bandwidth": func(g *Graph) { g.Channels[0].BandwidthMbps = math.Inf(-1) },
	}
	for name, mut := range cases {
		g := valid()
		mut(g)
		if g.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBandwidthAccounting(t *testing.T) {
	g := valid()
	if got := g.TotalBandwidthMbps(GT); got != 150 {
		t.Fatalf("GT total = %v", got)
	}
	if got := g.TotalBandwidthMbps(BE); got != 1 {
		t.Fatalf("BE total = %v", got)
	}
	if got := g.BEFraction(); got != 1.0/151 {
		t.Fatalf("BE fraction = %v", got)
	}
	if got := g.MaxChannelMbps(); got != 100 {
		t.Fatalf("max channel = %v", got)
	}
	if got := len(g.GTChannels()); got != 2 {
		t.Fatalf("GT channels = %d", got)
	}
}

func TestBEFractionEmptyGraph(t *testing.T) {
	g := &Graph{Name: "empty", Processes: []Process{{Name: "a"}}}
	if g.BEFraction() != 0 {
		t.Fatal("empty graph BE fraction should be 0")
	}
	if g.MaxChannelMbps() != 0 {
		t.Fatal("empty graph max channel should be 0")
	}
}

func TestDegreeAndLookup(t *testing.T) {
	g := valid()
	if _, ok := g.Process("a"); !ok {
		t.Fatal("Process(a) not found")
	}
	if _, ok := g.Process("zz"); ok {
		t.Fatal("Process(zz) found")
	}
}

func TestClassString(t *testing.T) {
	if GT.String() != "GT" || BE.String() != "BE" {
		t.Fatal("class names wrong")
	}
}
