package noc

import (
	"fmt"
	"io"

	"repro/internal/stdcell"
	"repro/internal/synth"
)

// cornerLib resolves a library corner name, as WithLibraryCorner and
// FabricSpec.Corner take it: "nominal" (or empty) or "hvt".
func cornerLib(corner string) (stdcell.Lib, error) {
	switch corner {
	case "", "nominal":
		return stdcell.Default013(), nil
	case "hvt":
		return stdcell.HighVT013(), nil
	default:
		return stdcell.Lib{}, fmt.Errorf("noc: unknown library corner %q (have nominal, hvt)", corner)
	}
}

// LibraryName returns the technology library name of a corner, for
// report headers.
func LibraryName(corner string) (string, error) {
	lib, err := cornerLib(corner)
	if err != nil {
		return "", err
	}
	return lib.Name, nil
}

// RenderSynthTable prints the synthesis comparison of the three routers
// (the paper's Table 4) at the given corner ("nominal" or "hvt").
func RenderSynthTable(w io.Writer, corner string) error {
	lib, err := cornerLib(corner)
	if err != nil {
		return err
	}
	return synth.Render(w, synth.Table4(lib))
}

// RenderSynthDesign prints the per-block area/timing/leakage report of
// one router: "circuit", "packet" or "aethereal".
func RenderSynthDesign(w io.Writer, design, corner string) error {
	lib, err := cornerLib(corner)
	if err != nil {
		return err
	}
	d, err := synth.Design(design, lib)
	if err != nil {
		return err
	}
	fmt.Fprint(w, d.Report(lib))
	fmt.Fprintf(w, "  leakage: %.1f uW, clock energy: %.1f pJ/cycle\n",
		d.LeakageUW(lib), d.ClockEnergyPerCycle(lib)/1e3)
	return nil
}

// RenderLaneSweep prints the circuit-switched lane count/width design
// sweep of Section 5.1.
func RenderLaneSweep(w io.Writer, corner string) error {
	lib, err := cornerLib(corner)
	if err != nil {
		return err
	}
	pts := synth.DefaultLaneSweep(lib)
	fmt.Fprintf(w, "%-6s %-6s %12s %10s %14s\n", "lanes", "width", "area [mm2]", "fmax", "link bw")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6d %-6d %12.4f %6.0f MHz %9.1f Gb/s\n",
			p.Lanes, p.Width, p.AreaMM2, p.MaxFreqMHz, p.LinkGbps)
	}
	return nil
}
