// Command radixbench regenerates the RadixVM paper's tables and figures.
//
// Usage:
//
//	radixbench -exp all                    # everything (several minutes)
//	radixbench -exp fig5 -cores 1,10,40,80 # one figure, custom sweep
//	radixbench -exp table2
//	radixbench -quick                      # fast smoke sweep (1,4,8 cores)
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8, fig9, mprotect,
// fork, spawn, clone, scale, fleet, filemap, table2, memory.
//
// The scale, fleet, and filemap experiments sweep 1..64 cores (1,8,64
// with -quick) across all three systems; fleet additionally sweeps the
// live-address-space axis 64..4096 (64,256 with -quick), and filemap the
// live-process axis 32..512 (32,128 with -quick). The other figure experiments
// keep the paper's 1,10,20,40,80 hardware-thread axis scaled to the
// default sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"radixvm/internal/harness"
)

// jsonExp is one experiment in the -json output: figure experiments carry
// rows, text experiments (table1, table2, memory) carry rendered text.
type jsonExp struct {
	Name   string           `json:"name"`
	Tables []*harness.Table `json:"tables,omitempty"`
	Text   string           `json:"text,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: all|table1|fig4|fig5|fig6|fig7|fig8|fig9|mprotect|fork|spawn|clone|scale|fleet|filemap|table2|memory")
	coresFlag := flag.String("cores", "", "comma-separated core counts (default 1,10,20,40,80; scale: 1,4,8,16,32,64)")
	iters := flag.Int("iters", 0, "per-core iterations (default per experiment)")
	quick := flag.Bool("quick", false, "fast smoke sweep (1,4,8 cores; scale: 1,8,64)")
	memCores := flag.Int("memcores", 20, "core count for the -exp memory experiment (80-core run is always appended)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	flag.Parse()

	o := harness.DefaultOptions()
	so := harness.ScaleOptions()
	lives := harness.FleetLives
	fmLives := harness.FileMapLives
	if *quick {
		o = harness.QuickOptions()
		so = harness.ScaleQuickOptions()
		lives = harness.FleetQuickLives
		fmLives = harness.FileMapQuickLives
	}
	if *coresFlag != "" {
		o.Cores = nil
		for _, part := range strings.Split(*coresFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "radixbench: bad core count %q\n", part)
				os.Exit(2)
			}
			o.Cores = append(o.Cores, n)
		}
		so.Cores = o.Cores
	}
	if *iters > 0 {
		o.Iters = *iters
		so.Iters = *iters
	}

	// run computes one experiment, returning tables for figure experiments
	// and rendered text for the text-only ones.
	run := func(name string) jsonExp {
		switch name {
		case "table1":
			return jsonExp{Name: name, Text: harness.Table1(harness.ModuleRoot())}
		case "fig4":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.Fig4(o)}}
		case "fig5":
			return jsonExp{Name: name, Tables: harness.Fig5(o)}
		case "fig6":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.Fig6(o)}}
		case "fig7":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.Fig7(o)}}
		case "fig8":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.Fig8(o)}}
		case "fig9":
			return jsonExp{Name: name, Tables: harness.Fig9(o)}
		case "mprotect":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.FigMprotect(o)}}
		case "fork":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.FigFork(o)}}
		case "spawn":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.FigSpawn(o)}}
		case "clone":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.FigClone(o)}}
		case "scale":
			return jsonExp{Name: name, Tables: []*harness.Table{harness.FigScale(so)}}
		case "fleet":
			return jsonExp{Name: name, Tables: harness.FigFleet(so, lives)}
		case "filemap":
			return jsonExp{Name: name, Tables: harness.FigFileMap(so, fmLives)}
		case "table2":
			return jsonExp{Name: name, Text: harness.Table2()}
		case "memory":
			// Report the requested sweep point alongside the paper's own
			// 80-core measurement (§5.4 cites 13x there).
			txt := harness.MetisMemory(*memCores)
			if *memCores != 80 {
				txt += harness.MetisMemory(80)
			}
			return jsonExp{Name: name, Text: txt}
		default:
			fmt.Fprintf(os.Stderr, "radixbench: unknown experiment %q\n", name)
			os.Exit(2)
			panic("unreachable")
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "mprotect", "fork", "spawn", "clone", "scale", "fleet", "filemap", "table2", "memory"}
	}

	var results []jsonExp
	for _, name := range names {
		r := run(name)
		if *jsonOut {
			results = append(results, r)
			continue
		}
		if r.Text != "" {
			fmt.Print(r.Text)
		}
		for _, t := range r.Tables {
			t.Print(os.Stdout)
		}
		fmt.Println()
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"experiments": results}); err != nil {
			fmt.Fprintf(os.Stderr, "radixbench: %v\n", err)
			os.Exit(1)
		}
	}
}
