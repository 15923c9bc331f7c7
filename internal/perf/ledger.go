package perf

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// LedgerOptions configures an all-workloads run.
type LedgerOptions struct {
	Seed    uint64
	Seconds float64
	Tiny    bool
	// Reps is how many times each workload runs, on consecutive seeds; more
	// than one gives compare a spread to judge differences against.
	Reps int
	// Out, when set, receives the ledger as JSON.
	Out string
}

// Ledger is the one results schema: where and how it was measured, then
// every (workload, metric) cell with its unit and the values of all reps.
type Ledger struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	HostCPU    string  `json:"host_cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
	Tiny       bool    `json:"tiny,omitempty"`

	Workloads []LedgerWorkload `json:"workloads"`
}

// LedgerWorkload is one workload's cells and sample counts.
type LedgerWorkload struct {
	Name      string `json:"name"`
	Jobs      int    `json:"jobs"`
	Rounds    []int  `json:"rounds"` // untraced rounds of each end-to-end rep
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Cells are keyed by metric name; fail_ratio is among them.
	Cells  map[string]Cell `json:"metrics"`
	PerJob []JobStat       `json:"per_job,omitempty"` // first rep
}

// Cell is one metric on one workload: its unit, the value of every rep and
// their median.
type Cell struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
}

// ledgerMain runs the four workloads, each run in a fresh child process so
// heap, RSS and caches never leak from one to the next, prints every
// metric and optionally writes the ledger. Any failed check is exit 1.
func ledgerMain(o LedgerOptions, stdout, stderr io.Writer) int {
	if o.Reps < 1 {
		o.Reps = 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ceal-bench:", err)
		return 1
	}
	led := Ledger{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), HostCPU: hostCPU(),
		NProc: runtime.NumCPU(), GOMAXPROCS: procs(),
		Seed: o.Seed, Seconds: o.Seconds, Reps: o.Reps, Tiny: o.Tiny,
	}
	code := 0
	for _, wl := range Workloads {
		lw := LedgerWorkload{Name: wl.Name, Cells: map[string]Cell{}}
		for rep := 0; rep < o.Reps; rep++ {
			for _, trace := range []bool{false, true} {
				r, err := runChild(exe, Options{
					Workload: wl.Name, Seed: o.Seed + uint64(rep), Seconds: o.Seconds,
					Trace: trace, Tiny: o.Tiny,
				}, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "ceal-bench: %s: %v\n", wl.Name, err)
					return 1
				}
				lw.add(r)
				if rep == 0 {
					printReport(stdout, r)
				}
			}
		}
		ratio := float64(lw.Failed) / float64(max(lw.Attempted, 1))
		lw.Cells[FailRatio] = Cell{Unit: "ratio", Median: ratio, Values: []float64{ratio}}
		if lw.Failed > 0 || lw.Attempted == 0 {
			code = 1
		}
		led.Workloads = append(led.Workloads, lw)
	}
	if o.Out != "" {
		data, err := json.MarshalIndent(led, "", "  ")
		if err == nil {
			err = os.WriteFile(o.Out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "ceal-bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "ledger written to %s\n", o.Out)
	}
	return code
}

func (lw *LedgerWorkload) add(r *Report) {
	lw.Jobs = r.Jobs
	lw.Attempted += r.Attempted
	lw.Failed += r.Failed
	if !r.Traced {
		lw.Rounds = append(lw.Rounds, r.Rounds)
		if lw.PerJob == nil {
			lw.PerJob = r.PerJob
		}
	}
	for name, v := range r.Metrics {
		// One source per cell: end-to-end metrics from the untraced run,
		// everything else from the traced one.
		if m, ok := MetricByName(name); !ok || m.E2E == r.Traced {
			continue
		}
		c := lw.Cells[name]
		c.Unit = v.Unit
		c.Values = append(c.Values, v.Value)
		c.Median = median(c.Values)
		lw.Cells[name] = c
	}
}

// runChild re-executes this binary for one workload run and reads the
// report it prints with -report.
func runChild(exe string, o Options, stderr io.Writer) (*Report, error) {
	args := []string{"-report", "-workload", o.Workload,
		"-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(o.Seconds)}
	if o.Trace {
		args = append(args, "-trace", "1")
	}
	if o.Tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	// A failed check exits 1 but still reports; anything else is fatal.
	var rep Report
	if jerr := json.Unmarshal(lastLine(out), &rep); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, jerr
	}
	return &rep, nil
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func hostCPU() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
