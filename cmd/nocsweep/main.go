// Command nocsweep sweeps on-chip-network configurations and measures
// saturation throughput, sustainable chain length, and latency-throughput
// curves with the flit-level simulator — the measured companion to the
// paper's Table 3.
//
// Usage:
//
//	nocsweep [-mesh 4,6,8] [-width 64,128] [-freq 500e6] [-curve]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/panic-nic/panic/internal/analytic"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/stats"
)

func main() {
	meshes := flag.String("mesh", "4,6,8", "comma-separated mesh dimensions")
	widths := flag.String("width", "64,128", "comma-separated channel widths (bits)")
	freq := flag.Float64("freq", 500e6, "clock frequency (Hz)")
	msgBytes := flag.Int("msg", 64, "message size (bytes)")
	warmup := flag.Uint64("warmup", 2000, "warmup cycles")
	window := flag.Uint64("window", 20000, "measurement cycles")
	curve := flag.Bool("curve", false, "print a latency-throughput curve for each config")
	pattern := flag.String("pattern", "uniform", "traffic pattern: uniform, hotspot, transpose, neighbor")
	aggLine := flag.Float64("aggline", 400, "aggregate line rate for chain-length conversion (Gbps, both directions, all ports)")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	sizes, err := parsePositiveInts("-mesh", *meshes)
	if err != nil {
		usageError(err)
	}
	widthList, err := parsePositiveInts("-width", *widths)
	if err != nil {
		usageError(err)
	}

	t := stats.NewTable("Topo", "Width", "Bisec(Gbps)", "Bound(Gbps)", "Sat(Gbps)", "Sat/Bound", "MeanLat(cyc)", "ChainLen@line")
	for _, k := range sizes {
		for _, w := range widthList {
			cfg := noc.DefaultMeshConfig()
			cfg.Width, cfg.Height, cfg.FlitWidthBits = k, k, w
			m := noc.NewMesh(cfg)
			pat := noc.PatternByName(*pattern)
			if pat == nil {
				fmt.Fprintf(os.Stderr, "unknown pattern %q (known: %v)\n", *pattern, noc.PatternNames())
				os.Exit(2)
			}
			p := noc.MeasurePattern(m, pat, *freq, *msgBytes, 1.0, *warmup, *window, *seed)
			params := analytic.MeshParams{K: k, WidthBits: w, FreqHz: *freq}
			bound := params.UniformBisectionBoundGbps()
			chain := p.DeliveredGbps / *aggLine - analytic.OverheadTraversals
			t.AddRow(
				fmt.Sprintf("%dx%d", k, k), w,
				fmt.Sprintf("%.0f", params.BisectionGbps()),
				fmt.Sprintf("%.0f", bound),
				fmt.Sprintf("%.0f", p.DeliveredGbps),
				fmt.Sprintf("%.2f", p.DeliveredGbps/bound),
				fmt.Sprintf("%.1f", p.MeanLatencyCycles),
				fmt.Sprintf("%.2f", chain),
			)
			if *curve {
				printCurve(k, w, *freq, *msgBytes, *warmup, *window, *seed)
			}
		}
	}
	fmt.Print(t.String())
}

func printCurve(k, w int, freq float64, msgBytes int, warmup, window, seed uint64) {
	fmt.Printf("latency-throughput curve, %dx%d mesh, %d-bit channels:\n", k, k, w)
	build := func() *noc.Mesh {
		cfg := noc.DefaultMeshConfig()
		cfg.Width, cfg.Height, cfg.FlitWidthBits = k, k, w
		return noc.NewMesh(cfg)
	}
	t := stats.NewTable("offered", "delivered(Gbps)", "mean latency(cyc)")
	for _, load := range []float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.5, 1.0} {
		p := noc.MeasureLoad(build(), freq, msgBytes, load, warmup, window, seed)
		t.AddRow(fmt.Sprintf("%.3f", load), fmt.Sprintf("%.1f", p.DeliveredGbps), fmt.Sprintf("%.1f", p.MeanLatencyCycles))
	}
	fmt.Print(t.String())
	fmt.Println()
}

// parsePositiveInts parses a flag's comma-separated list of mesh sizes or
// channel widths; each must be an integer of at least 1.
func parsePositiveInts(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%s: bad integer %q", name, part)
		}
		if v < 1 {
			return nil, fmt.Errorf("%s: %d is below 1", name, v)
		}
		out = append(out, v)
	}
	return out, nil
}

// usageError reports a bad flag value with the usage text and exits 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "nocsweep:", err)
	flag.Usage()
	os.Exit(2)
}
