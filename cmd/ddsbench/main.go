// Command ddsbench regenerates the paper's tables and figures (and the
// extension experiments) from the synthetic datasets, printing each result
// as an aligned table or CSV.
//
// Usage:
//
//	ddsbench -list
//	ddsbench -experiment fig5.4
//	ddsbench -experiment all -format csv -runs 10
//	ddsbench -experiment fig5.7 -oc48-scale 0.05 -enron-scale 0.5
//	ddsbench -experiment table5.1 -paper        # full paper-scale sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/plot"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		list       = flag.Bool("list", false, "list available experiments and exit")
		format     = flag.String("format", "table", "output format: table or csv")
		plotFlag   = flag.Bool("plot", false, "also render an ASCII chart for experiments that describe one")
		runs       = flag.Int("runs", 0, "override the number of runs averaged per data point")
		oc48Scale  = flag.Float64("oc48-scale", 0, "override the OC48 dataset scale (1 = paper size)")
		enronScale = flag.Float64("enron-scale", 0, "override the Enron dataset scale (1 = paper size)")
		seed       = flag.Uint64("seed", 0, "override the master seed")
		paper      = flag.Bool("paper", false, "use the paper's full-scale configuration (slow)")
		quick      = flag.Bool("quick", false, "use the sub-second configuration used by tests")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", r.ID, r.Description)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *runs > 0 {
		cfg.Runs = *runs
		cfg.SlidingRuns = *runs
	}
	if *oc48Scale > 0 {
		cfg.OC48Scale = *oc48Scale
	}
	if *enronScale > 0 {
		cfg.EnronScale = *enronScale
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	var selected []experiments.Runner
	if *experiment == "all" {
		selected = experiments.Registry()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n",
					id, strings.Join(experiments.IDs(), ", "))
				os.Exit(2)
			}
			selected = append(selected, r)
		}
	}

	for _, r := range selected {
		start := time.Now()
		table := r.Run(cfg)
		switch *format {
		case "csv":
			fmt.Print(table.CSV())
		default:
			fmt.Print(table.String())
		}
		if *plotFlag && table.Plot != nil {
			chart := &plot.Chart{
				Title:  table.Title,
				XLabel: table.Columns[table.Plot.X],
				YLabel: table.Columns[table.Plot.Y],
				LogX:   table.Plot.LogX,
				LogY:   table.Plot.LogY,
			}
			for _, s := range plot.FromRows(table.Rows, table.Plot.Group, table.Plot.X, table.Plot.Y) {
				chart.Add(s.Name, s.Points)
			}
			fmt.Println()
			fmt.Print(chart.Render())
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
