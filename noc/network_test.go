package noc

import (
	"math"
	"strings"
	"testing"
)

func TestNetworkMapUnmapRemap(t *testing.T) {
	net, err := NewNetwork(4, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := net.Map("umts")
	if err != nil {
		t.Fatal(err)
	}
	if mp.Channels == 0 || mp.LanePaths == 0 || len(mp.Placements) == 0 {
		t.Fatalf("mapping not populated: %+v", mp)
	}
	util4 := net.LinkUtilization()
	if util4 <= 0 {
		t.Fatalf("utilization %v after mapping", util4)
	}
	if err := net.Unmap(mp.ID); err != nil {
		t.Fatal(err)
	}
	if u := net.LinkUtilization(); u != 0 {
		t.Fatalf("utilization %v after unmap, want 0", u)
	}
	if len(net.Mappings()) != 0 {
		t.Fatalf("mappings %v after unmap", net.Mappings())
	}
	// Released lanes are immediately reusable at a smaller operating
	// point: the paper's reception-quality remap.
	mp2, err := net.Map("umts:2")
	if err != nil {
		t.Fatal(err)
	}
	if net.LinkUtilization() >= util4 {
		t.Errorf("2-finger utilization %.3f not below 4-finger %.3f",
			net.LinkUtilization(), util4)
	}
	if mp2.Channels >= mp.Channels {
		t.Errorf("2-finger channels %d not below 4-finger %d", mp2.Channels, mp.Channels)
	}
}

func TestNetworkConcurrentMappingsIndependent(t *testing.T) {
	net, err := NewNetwork(5, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	umts, err := net.Map("umts")
	if err != nil {
		t.Fatal(err)
	}
	drm, err := net.Map("drm")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Unmap(drm.ID); err != nil {
		t.Fatal(err)
	}
	if got := net.Mappings(); len(got) != 1 || got[0] != umts.ID {
		t.Fatalf("mappings %v, want [%d]", got, umts.ID)
	}
	if net.LinkUtilization() <= 0 {
		t.Error("UMTS circuits lost when DRM was unmapped")
	}
}

func TestNetworkErrors(t *testing.T) {
	if _, err := NewNetwork(1, 1, 100); err == nil {
		t.Error("1x1 mesh accepted")
	}
	// A NaN or infinite clock would size lane paths from NaN lane rates,
	// and int(math.Ceil(bw/NaN)) is -2^63 lanes.
	for _, f := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewNetwork(4, 3, f); err == nil || !strings.Contains(err.Error(), "frequency") {
			t.Errorf("NewNetwork(4, 3, %v) error %v, want one naming the frequency", f, err)
		}
	}
	net, err := NewNetwork(4, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Map("zigbee"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := net.Map("umts:0"); err == nil {
		t.Error("zero fingers accepted")
	}
	if _, err := net.Map("umts:x"); err == nil {
		t.Error("non-numeric fingers accepted")
	}
	if err := net.Unmap(99); err == nil {
		t.Error("unknown mapping id accepted")
	}
}
