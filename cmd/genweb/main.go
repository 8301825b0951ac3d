// Command genweb generates synthetic crawls with the paper-calibrated
// statistics, prints their structural stats, and measures partition
// quality (§4.1).
//
// Examples:
//
//	genweb -pages 100000 -out crawl.bin
//	genweb -pages 50000 -stats
//	genweb -pages 50000 -cut -k 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"p2prank/internal/experiments"
	"p2prank/internal/metrics"
	"p2prank/internal/webgraph"
)

func main() {
	var (
		pages   = flag.Int("pages", 20000, "number of pages to generate")
		sites   = flag.Int("sites", 0, "number of sites (0 = scale like the paper's dataset)")
		seed    = flag.Uint64("seed", 1, "generator seed")
		out     = flag.String("out", "", "write the graph to this file")
		format  = flag.String("format", "auto", "output format: auto|bin|text (auto: .txt suffix = text, else binary)")
		stats   = flag.Bool("stats", false, "print structural statistics (with -out bin, also the on-disk section sizes)")
		cut     = flag.Bool("cut", false, "print the §4.1 partition-cut comparison")
		k       = flag.Int("k", 32, "number of rankers for -cut")
		degree  = flag.Float64("degree", 15, "mean total out-degree")
		extfrac = flag.Float64("extfrac", 8.0/15.0, "fraction of links leaving the crawl")
	)
	flag.Parse()

	if *sites < 0 {
		fatal(fmt.Errorf("-sites = %d, must not be negative (0 scales with -pages)", *sites))
	}
	cfg := webgraph.DefaultGenConfig(*pages)
	if *sites > 0 {
		cfg.Sites = *sites
	}
	cfg.Seed = *seed
	cfg.MeanOutDegree = *degree
	cfg.ExternalFrac = *extfrac
	g, err := webgraph.Generate(cfg)
	if err != nil {
		fatal(err)
	}

	if *stats || (*out == "" && !*cut) {
		fmt.Print(webgraph.ComputeStats(g).String())
	}
	if *cut {
		e, err := experiments.Lookup("cut")
		if err != nil {
			fatal(err)
		}
		res, err := e.Run(experiments.Params{Workload: experiments.Workload{Source: g, Seed: *seed}, K: *k})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s\n%s", res.Caption, metrics.TableOf(res.Rows))
	}
	if *out != "" {
		asText := false
		switch *format {
		case "text":
			asText = true
		case "bin":
		case "auto":
			asText = strings.HasSuffix(*out, ".txt")
		default:
			fatal(fmt.Errorf("unknown -format %q (want auto, bin, or text)", *format))
		}
		if asText {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := webgraph.WriteText(f, g); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		} else {
			if err := webgraph.WriteMappedFile(*out, g); err != nil {
				fatal(err)
			}
			if *stats {
				infos, total := webgraph.MappedLayout(g)
				fmt.Println("on-disk sections:")
				for _, info := range infos {
					fmt.Printf("  %-12s %12d bytes  (%d entries)\n", info.Name, info.Bytes, info.Count)
				}
				fmt.Printf("  %-12s %12d bytes\n", "total", total)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d pages, %d internal links)\n",
			*out, g.NumPages(), g.NumInternalLinks())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genweb:", err)
	os.Exit(1)
}
