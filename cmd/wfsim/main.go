// Command wfsim runs one workflow configuration on the cluster simulator
// and reports its execution and computer time.
//
// Usage:
//
//	wfsim -workflow LV -config 561,25,1,75,14,1
//	wfsim -workflow HS -config 13,17,14,4,29,19,3 -mode posthoc
//	wfsim -workflow GP -config 175,13,24,23 -mode solo -component grayscott
//	wfsim -workflow GP -config 175,13 -mode solo -component grayscott
//	wfsim -workflow LV -expert exec
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ceal"
	"ceal/internal/workflow"
)

func main() {
	var (
		wfName    = flag.String("workflow", "LV", "benchmark workflow: LV, HS, or GP")
		cfgStr    = flag.String("config", "", "comma-separated configuration values (see -spaces)")
		mode      = flag.String("mode", "insitu", "run mode: insitu, tight, posthoc, or solo")
		component = flag.String("component", "", "component name for -mode solo")
		expert    = flag.String("expert", "", "run the expert configuration for an objective: exec or comp")
		spaces    = flag.Bool("spaces", false, "print the workflow's parameter space and exit")
		trace     = flag.Bool("trace", false, "print a per-component phase timeline (insitu mode)")
	)
	flag.Parse()

	m := ceal.DefaultMachine()
	b, err := ceal.BenchmarkByName(m, strings.ToUpper(*wfName))
	if err != nil {
		fatal(err)
	}

	if *spaces {
		printSpaces(b)
		return
	}

	cfg, err := resolveConfig(b, *cfgStr, *expert)
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "insitu", "posthoc", "tight":
		w, err := b.Build(cfg) // validates cfg against the workflow space
		if err != nil {
			fatal(err)
		}
		var meas ceal.Measurement
		var timeline *workflow.Trace
		switch *mode {
		case "insitu":
			if *trace {
				meas, timeline, err = w.RunInSituTraced()
			} else {
				meas, err = w.RunInSitu()
			}
		case "tight":
			meas, err = w.RunTightlyCoupled()
		default:
			meas, err = w.RunPostHoc()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workflow %s %v (%s)\n", b.Name, cfg, *mode)
		nodes := w.TotalNodes()
		if *mode == "tight" {
			// Tightly-coupled components time-share the widest allocation.
			nodes = 0
			for _, c := range w.Components {
				if n := c.Nodes(); n > nodes {
					nodes = n
				}
			}
		}
		fmt.Printf("  nodes          %d\n", nodes)
		fmt.Printf("  execution time %.3f s\n", meas.ExecTime)
		fmt.Printf("  computer time  %.4f core-hours\n", meas.CompTime)
		fmt.Printf("  energy         %.1f kJ\n", meas.EnergyKJ)
		for i, c := range w.Components {
			fmt.Printf("  %-12s wall %.3f s on %d node(s)\n", c.Name, meas.PerComponent[i], c.Nodes())
		}
		if timeline != nil {
			fmt.Print(timeline.String())
		}
	case "solo":
		idx := -1
		for j, cs := range b.Components {
			if cs.Name == *component {
				idx = j
			}
		}
		if idx < 0 {
			fatal(fmt.Errorf("unknown component %q; workflow %s has %s", *component, b.Name, componentNames(b)))
		}
		cs := b.Components[idx]
		sub, err := soloConfig(b, idx, cfg)
		if err != nil {
			fatal(err)
		}
		c := cs.BuildSolo(sub)
		meas, err := workflow.RunSolo(b.Machine, c, cs.InBytesPerStep)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("component %s/%s %v (solo)\n", b.Name, cs.Name, sub)
		fmt.Printf("  nodes          %d\n", c.Nodes())
		fmt.Printf("  execution time %.3f s\n", meas.ExecTime)
		fmt.Printf("  computer time  %.4f core-hours\n", meas.CompTime)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// soloConfig returns component j's configuration for -mode solo: its slice
// of a workflow configuration, or cfg as the component's own.
func soloConfig(b *ceal.Benchmark, j int, cfg ceal.Config) (ceal.Config, error) {
	cs := b.Components[j]
	switch {
	case b.Space.IsValid(cfg):
		return b.Sub(cfg, j), nil
	case cs.Space != nil && cs.Space.IsValid(cfg):
		return cfg, nil
	}
	return nil, fmt.Errorf("configuration %v is valid neither for %s nor for its component %s", cfg, b.Name, cs.Name)
}

// resolveConfig returns the configuration -expert or -config names; Build or
// soloConfig validates it.
func resolveConfig(b *ceal.Benchmark, cfgStr, expert string) (ceal.Config, error) {
	switch expert {
	case "exec":
		return b.ExpertExec, nil
	case "comp":
		return b.ExpertComp, nil
	case "":
	default:
		return nil, fmt.Errorf("unknown -expert %q (want exec or comp)", expert)
	}
	if cfgStr == "" {
		return nil, fmt.Errorf("need -config or -expert; try -spaces to see the parameters")
	}
	parts := strings.Split(cfgStr, ",")
	cfg := make(ceal.Config, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad configuration value %q", p)
		}
		cfg[i] = v
	}
	return cfg, nil
}

func printSpaces(b *ceal.Benchmark) {
	fmt.Printf("workflow %s: %d parameters, raw space %.3g\n", b.Name, b.Space.Dim(), b.Space.RawSize())
	for _, p := range b.Space.Params {
		fmt.Printf("  %-24s %d .. %d (step %d)\n", p.Name, p.Min, p.Max, p.Step)
	}
	fmt.Printf("expert configs: exec %v, comp %v\n", b.ExpertExec, b.ExpertComp)
}

func componentNames(b *ceal.Benchmark) string {
	names := make([]string, len(b.Components))
	for i, cs := range b.Components {
		names[i] = cs.Name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfsim:", err)
	os.Exit(1)
}
