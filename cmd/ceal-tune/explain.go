package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ceal/internal/histdb"
	"ceal/internal/tuner/events"
)

// explain is the explain subcommand: it reads one run's event trace — a
// -trace file, or with -history the trace stored for a run ID — and prints
// each batch's cost, fit and model recall, time and work by phase,
// measurements by kind, and CEAL's switch decisions. A stored trace holds
// no phase spans (only a fresh run's -trace file does).
func explain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ceal-tune explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	history := fs.String("history", "", "read the trace of run <run-id> from this tuning-history DB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ceal-tune explain <trace.jsonl> | ceal-tune explain -history <dir> <run-id>")
		return 2
	}
	lines, err := traceLines(fs.Arg(0), *history)
	if err == nil {
		err = explainTrace(stdout, lines)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ceal-tune explain:", err)
		return 1
	}
	return 0
}

// traceLines reads a trace file's lines, or the stored trace of run id
// from the history DB at dir, which must exist.
func traceLines(arg, dir string) ([]json.RawMessage, error) {
	if dir == "" {
		data, err := os.ReadFile(arg)
		var lines []json.RawMessage
		for _, l := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			lines = append(lines, l)
		}
		return lines, err
	}
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	db, err := histdb.OpenFileStore(dir)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	rec, ok := db.Get(arg)
	if !ok {
		return nil, fmt.Errorf("no run %s in %s", arg, dir)
	}
	return rec.Trace, nil
}

// traceLine is the union of the event fields explain reads.
type traceLine struct {
	Event     events.Kind `json:"event"`
	Algorithm string      `json:"algorithm"`
	Problem   string      `json:"problem"`
	Budget    int         `json:"budget"`
	Iteration int         `json:"iteration"`
	Phase     string      `json:"phase"`
	Size      int         `json:"size"`
	Hits      uint64      `json:"cache_hits"`
	Misses    uint64      `json:"cache_misses"`
	Cost      float64     `json:"cost"`
	Model     string      `json:"model"`
	Samples   int         `json:"samples"`
	Duration  int64       `json:"duration_ns"`
	High      float64     `json:"high_recall"`
	Low       float64     `json:"low_recall"`
	Switched  bool        `json:"switched"`
	Added     int         `json:"added"`
	CompRuns  int         `json:"component_runs"`
	Best      float64     `json:"best_value"`
	WallNS    int64       `json:"wall_ns"`
	events.Work
}

// explainTrace prints explain's report of a trace.
func explainTrace(w io.Writer, lines []json.RawMessage) error {
	var phases []string // in first-seen order
	spans, wall, work := map[string]int{}, map[string]int64{}, map[string]events.Work{}
	var runs, batches, measured, compRuns int
	var hits, misses uint64
	var decisions []string
	for i, raw := range lines {
		var l traceLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("trace line %d: %w", i+1, err)
		}
		switch l.Event {
		case events.KindRunStarted:
			runs++
			fmt.Fprintf(w, "run %d: %s on %s, budget %d\n", runs, l.Algorithm, l.Problem, l.Budget)
		case events.KindPhase:
			if spans[l.Phase] == 0 {
				phases = append(phases, l.Phase)
			}
			spans[l.Phase]++
			wall[l.Phase] += l.WallNS
			work[l.Phase] = work[l.Phase].Add(l.Work)
		case events.KindBatchMeasured:
			batches, measured, hits, misses = batches+1, measured+l.Size, hits+l.Hits, misses+l.Misses
			fmt.Fprintf(w, "  iteration %d: %d configurations, cost %.5g\n", l.Iteration, l.Size, l.Cost)
		case events.KindModelTrained:
			fmt.Fprintf(w, "    %s fit on %d samples in %.3f ms\n", l.Model, l.Samples, float64(l.Duration)/1e6)
		case events.KindSwitchDecision:
			fmt.Fprintf(w, "    out-of-sample recall: M_H %.4g, M_L %.4g\n", l.High, l.Low)
			if l.Switched {
				decisions = append(decisions, fmt.Sprintf("run %d switched to M_H at iteration %d (recall %.4g >= %.4g)", runs, l.Iteration, l.High, l.Low))
			}
		case events.KindBiasEscape:
			decisions = append(decisions, fmt.Sprintf("run %d escaped bias at iteration %d: %d random configurations", runs, l.Iteration, l.Added))
		case events.KindIterationDone:
			fmt.Fprintf(w, "    best so far %.5g\n", l.Best)
		case events.KindRunFinished:
			compRuns += l.CompRuns
		}
	}
	if runs == 0 {
		return errors.New("not a run trace: no run_started line")
	}
	fmt.Fprintln(w, "time and work by phase:")
	if len(phases) == 0 {
		fmt.Fprintln(w, "  no phase spans (a stored trace has none; a fresh run's -trace file does)")
	}
	var total events.Work
	var totalNS int64
	for _, ph := range phases {
		row := fmt.Sprintf("  %-9s %3d spans %10.3f ms %s", ph, spans[ph], float64(wall[ph])/1e6, work[ph])
		fmt.Fprintln(w, strings.TrimRight(row, " "))
		total, totalNS = total.Add(work[ph]), totalNS+wall[ph]
	}
	if len(phases) > 0 {
		fmt.Fprintf(w, "  %-9s           %10.3f ms %s\n", "total", float64(totalNS)/1e6, total)
	}
	fmt.Fprintf(w, "measurements by kind:\n  workflow: %d in %d batches (%d simulated, %d cache hits)\n  component: %d standalone runs\n",
		measured, batches, misses, hits, compRuns)
	fmt.Fprintln(w, "switch decisions:")
	if len(decisions) == 0 {
		decisions = []string{"none"}
	}
	for _, d := range decisions {
		fmt.Fprintln(w, " ", d)
	}
	return nil
}
