// Command ceal-bench is the repository's performance ledger: it runs the
// paper, bigpool, serve and store workloads, prints every end-to-end and
// per-layer metric by name and unit, verifies the outputs, and exits
// non-zero on any failed check. See README.md beside this file.
package main

import (
	"os"

	"ceal/internal/perf"
)

func main() {
	os.Exit(perf.Main(os.Args[1:], os.Stdout, os.Stderr))
}
