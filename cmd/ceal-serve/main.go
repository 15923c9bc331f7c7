// Command ceal-serve runs the auto-tuner as a long-lived HTTP service: a
// facility-side daemon that accepts tuning jobs, runs them concurrently on
// a bounded worker pool, streams each run's live event trace, and persists
// every run to the tuning-history database (internal/histdb) so identical
// resubmissions are served from the store, new runs can warm-start from
// prior measurements, and interrupted runs resume from their checkpoint.
//
// Usage:
//
//	ceal-serve -addr :8080 -workers 2 -queue 16 -store runs.db
//
// Measurements can fan out to remote ceal-worker daemons instead of
// running in-process, and several replicas can share one store directory
// (each minting replica-prefixed run IDs and deduplicating against the
// others' finished runs):
//
//	ceal-worker -addr :9400 & ceal-worker -addr :9401 &
//	ceal-serve -addr :8080 -replica-id a -store /shared/runs.db \
//	    -workers-remote http://localhost:9400,http://localhost:9401
//	ceal-serve -addr :8081 -replica-id b -store /shared/runs.db \
//	    -workers-remote http://localhost:9400,http://localhost:9401
//
//	curl -X POST localhost:8080/v1/runs -d '{"benchmark":"LV","algorithm":"ceal","budget":50}'
//	curl -X POST localhost:8080/v1/runs -d '{"benchmark":"LV","warm_start":true}'  # seed from history
//	curl localhost:8080/v1/runs/run-000001
//	curl localhost:8080/v1/runs/run-000001/events        # live JSONL trace
//	curl -X DELETE localhost:8080/v1/runs/run-000001     # cancel
//	curl -X POST localhost:8080/v1/runs/run-000001/resume  # replay an interrupted run
//	curl 'localhost:8080/v1/history?workflow=LV'         # query the history DB
//
// With -store, runs are checkpointed after every measured batch: a daemon
// killed mid-run (even SIGKILL) leaves a resumable record behind, and
// POST /v1/runs/{id}/resume after restart re-derives the identical result
// by replaying the persisted measurements instead of re-measuring.
//
// SIGINT/SIGTERM drain gracefully: no new jobs are admitted, in-flight
// runs are cancelled (they abort within one measurement batch), and the
// run store is flushed before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ceal/internal/histdb"
	"ceal/internal/profiling"
	"ceal/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment explicit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ceal-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		workers   = fs.Int("workers", 2, "concurrent tuning runs")
		queue     = fs.Int("queue", 16, "admission queue limit")
		storePath = fs.String("store", "", "run-store path (empty: in-memory only)")
		drain     = fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline")
		remote    = fs.String("workers-remote", "", "comma-separated ceal-worker URLs; measurements fan out to them instead of running in-process")
		replica   = fs.String("replica-id", "", "replica name for multi-replica deployments sharing one -store; run IDs become run-<replica>-NNNNNN")
		withProf  = fs.Bool("pprof", false, "expose /debug/pprof endpoints on -addr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ceal-serve: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if strings.ContainsAny(*replica, "-/ \t") {
		fmt.Fprintf(stderr, "ceal-serve: -replica-id %q must not contain dashes, slashes or spaces\n", *replica)
		return 2
	}

	opts := service.Options{Workers: *workers, QueueLimit: *queue, ReplicaID: *replica}
	if *remote != "" {
		var urls []string
		for _, u := range strings.Split(*remote, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			fmt.Fprintln(stderr, "ceal-serve: -workers-remote given but no worker URLs parsed")
			return 2
		}
		opts.Build = service.BuildSpecRemote(urls)
	}
	if *storePath != "" {
		fst, err := histdb.OpenFileStore(*storePath)
		if err != nil {
			fmt.Fprintln(stderr, "ceal-serve:", err)
			return 1
		}
		opts.Store = fst
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, *addr, opts, *drain, *withProf, stdout, stderr)
}

// serve listens on addr and blocks until ctx is cancelled (signal) or the
// listener fails, then drains the manager within the deadline.
func serve(ctx context.Context, addr string, opts service.Options, drain time.Duration, withProf bool, stdout, stderr io.Writer) int {
	mgr := service.NewManager(opts)
	srv := &http.Server{Handler: profiling.Wrap(service.NewServer(mgr), withProf)}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, "ceal-serve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "ceal-serve: listening on %s (%d workers, queue %d)\n", ln.Addr(), opts.Workers, opts.QueueLimit)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "ceal-serve: shutting down")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "ceal-serve:", err)
			code = 1
		}
	}

	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Drain the manager first: cancelling the jobs closes their event hubs,
	// which ends any live trace streams — otherwise srv.Shutdown would wait
	// on them until the deadline.
	if err := mgr.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "ceal-serve: drain:", err)
		code = 1
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "ceal-serve: http shutdown:", err)
		code = 1
	}
	return code
}
