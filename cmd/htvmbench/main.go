// Command htvmbench regenerates the paper's experiments (-list names
// them; see README.md for what they show, and ROADMAP.md's item "a
// paper-to-code ledger, then a prune" for the planned ledger that will
// index them). With no arguments it runs everything at scale 1.
//
// Usage:
//
//	htvmbench [-scale N] [-list] [exp ...]
//
// Examples:
//
//	htvmbench                 # all experiments
//	htvmbench S1 S2           # just the SSP series
//	htvmbench -scale 4 F2     # bigger neuron network
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	scale := flag.Int("scale", 1, "workload scale factor (>= 1)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(exp.IDs(), "\n"))
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	exitCode := 0
	for _, id := range ids {
		t0 := time.Now()
		res, err := exp.Run(strings.ToUpper(id), *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "htvmbench: %v\n", err)
			exitCode = 1
			continue
		}
		fmt.Println(res.Table.String())
		if len(res.Metrics) > 0 {
			keys := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Print("headline: ")
			for i, k := range keys {
				if i > 0 {
					fmt.Print("  ")
				}
				fmt.Printf("%s=%.3g", k, res.Metrics[k])
			}
			fmt.Println()
		}
		fmt.Printf("(%s in %v)\n\n", res.ID, time.Since(t0).Round(time.Millisecond))
	}
	os.Exit(exitCode)
}
