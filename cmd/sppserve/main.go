// Command sppserve runs the SPP minimization HTTP service: a JSON API
// over the exact and SPP_k engines with a canonical-function result
// cache, bounded concurrency, per-request deadlines and an spp-stats/v1
// observability endpoint (see internal/service and ARCHITECTURE.md).
//
//	sppserve -addr 127.0.0.1:8080
//	curl -s localhost:8080/healthz
//	curl -s -d '{"bench":"adr4"}' localhost:8080/v1/minimize
//	curl -s -d '{"bench":"adr4","form":"auto"}' localhost:8080/v1/minimize
//	curl -s -d '{"requests":[{"n":3,"on":[1,2,4,7]},{"bench":"life"}]}' \
//	    localhost:8080/v1/minimize
//	curl -s -d '{"base":"<base_key>","add":[5],"remove":[24]}' \
//	    localhost:8080/v1/minimize          # with -warm-cache
//	curl -s localhost:8080/statsz
//
// Minimization bounds share flag names with spptables
// (-max-candidates, -cover-workers, -cover-max-nodes). There is no
// -budget: each compute is bounded by its request deadline
// (-default-timeout, capped by -max-timeout) or, for an async job, by
// -job-timeout. On SIGINT/SIGTERM the server drains in-flight requests
// (refusing new ones with 503) and flushes a final spp-stats-run/v1
// report of the recent runs to -stats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		maxConc     = flag.Int("max-concurrent", 2, "admission gate width: engine computes in flight at once (cache hits and coalesced waiters are not gated)")
		batchWork   = flag.Int("batch-workers", 4, "batch items processed concurrently per request (1 = serial)")
		cacheSize   = flag.Int("cache-size", 256, "canonical-function result cache capacity (entries)")
		cacheBytes  = flag.Int64("cache-bytes", 256<<20, "result cache capacity in payload bytes (warm states charge their real footprint; 0 or less means the 256 MiB default)")
		cacheShards = flag.Int("cache-shards", 0, "result cache shard count, rounded to a power of two (0 = automatic)")
		warmCache   = flag.Bool("warm-cache", false, "retain warm EPPP state for exact runs and accept delta requests against it")
		maxDirty    = flag.Float64("delta-max-dirty", 0.25, "delta requests whose churn exceeds this fraction of the base care set fall back to a cold run")
		defTimeout  = flag.Duration("default-timeout", 30*time.Second, "per-request deadline when the request sets none")
		maxTimeout  = flag.Duration("max-timeout", 2*time.Minute, "cap on request-supplied timeouts")
		historySize = flag.Int("history", 32, "recent cold runs kept for /statsz")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		statsPath   = flag.String("stats", "", "write the final run report (JSON) here on shutdown, - for stdout")
		maxBody     = flag.Int64("max-body", 8<<20, "request body size cap in bytes")
		maxBatch    = flag.Int("max-batch", 64, "max requests per batch envelope")
		jobsDir     = flag.String("jobs-dir", "", "enable the async job tier: journal accepted jobs here (POST /v1/jobs), replay on startup")
		jobWorkers  = flag.Int("job-workers", 2, "async job worker pool size (each compute still takes an admission slot)")
		jobRetries  = flag.Int("job-retries", 2, "lease-expiry retries before a job is parked as failed")
		jobLease    = flag.Duration("job-lease", 30*time.Second, "job lease TTL; a worker that misses heartbeats this long forfeits the job")
		jobTimeout  = flag.Duration("job-timeout", 10*time.Minute, "cap on a single async job compute")
		jobResTTL   = flag.Duration("job-result-ttl", 15*time.Minute, "keep a trimmed terminal job's outcome queryable this long (negative disables)")
		forms       = flag.String("forms", "", "comma-separated form backends to enable (spp,sop,esop,dsop; empty = all); see docs/forms.md")
		ftdcDir     = flag.String("ftdc-dir", "", "enable the telemetry ring: sample service counters into crash-tolerant segments here (GET /statsz/history)")
		ftdcIntvl   = flag.Duration("ftdc-interval", time.Second, "telemetry sampling period")
		quotaRPS    = flag.Float64("quota-rps", 0, "per-tenant admission quota in requests/sec (X-Tenant header; 0 = off)")
		quotaBurst  = flag.Int("quota-burst", 0, "per-tenant quota bucket depth (0 = ceil of -quota-rps)")
	)
	core := harness.DefaultConfig()
	core.BindFlags(flag.CommandLine)
	flag.Parse()

	var formList []string
	if *forms != "" {
		formList = strings.Split(*forms, ",")
		for i := range formList {
			formList[i] = strings.TrimSpace(formList[i])
		}
		if _, err := engine.NewRegistry(formList...); err != nil {
			fmt.Fprintln(os.Stderr, "sppserve:", err)
			os.Exit(1)
		}
	}

	svc := service.New(service.Config{
		Core:           core,
		MaxConcurrent:  *maxConc,
		BatchWorkers:   *batchWork,
		CacheSize:      *cacheSize,
		CacheBytes:     *cacheBytes,
		CacheShards:    *cacheShards,
		WarmCache:      *warmCache,
		DeltaMaxDirty:  *maxDirty,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		HistorySize:    *historySize,
		MaxBodyBytes:   *maxBody,
		MaxBatch:       *maxBatch,
		JobsDir:        *jobsDir,
		JobWorkers:     *jobWorkers,
		JobRetries:     *jobRetries,
		JobLeaseTTL:    *jobLease,
		JobTimeout:     *jobTimeout,
		JobResultTTL:   *jobResTTL,
		Forms:          formList,
		FTDCDir:        *ftdcDir,
		FTDCInterval:   *ftdcIntvl,
		QuotaRPS:       *quotaRPS,
		QuotaBurst:     *quotaBurst,
	})

	if *ftdcDir != "" {
		if err := svc.StartTelemetry(); err != nil {
			fmt.Fprintln(os.Stderr, "sppserve: telemetry:", err)
			os.Exit(1)
		}
		fmt.Printf("sppserve: telemetry enabled dir=%s interval=%s\n", *ftdcDir, *ftdcIntvl)
	}

	if *jobsDir != "" {
		replay, err := svc.StartJobs()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sppserve: jobs:", err)
			os.Exit(1)
		}
		fmt.Printf("sppserve: jobs enabled dir=%s workers=%d replayed=%d requeued=%d\n",
			*jobsDir, *jobWorkers, len(replay.Completed), replay.Requeued)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sppserve:", err)
		os.Exit(1)
	}
	fmt.Printf("sppserve: listening on %s\n", ln.Addr())

	// Header/read deadlines cap slowloris-style connections; the body
	// itself is already size-capped by the service (-max-body).
	// ReadTimeout covers only reading the request, not the handler, so
	// it can be far shorter than -max-timeout; no WriteTimeout because
	// responses may legitimately take up to -max-timeout to compute.
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "sppserve:", err)
		os.Exit(1)
	}
	stop()

	fmt.Fprintln(os.Stderr, "sppserve: draining")
	svc.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "sppserve: shutdown:", err)
	}
	if *jobsDir != "" {
		// Stop workers after the HTTP drain so late submissions either
		// got their 503 or made it into the journal. Interrupted jobs
		// are released, not failed: the journal re-enqueues them on the
		// next start.
		if err := svc.StopJobs(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "sppserve: jobs shutdown:", err)
		}
	}
	if *ftdcDir != "" {
		svc.StopTelemetry()
	}

	if *statsPath != "" {
		rr := svc.FinalReport()
		out := os.Stdout
		if *statsPath != "-" {
			f, err := os.Create(*statsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sppserve:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := rr.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "sppserve:", err)
			os.Exit(1)
		}
		if *statsPath != "-" {
			fmt.Fprintln(os.Stderr, "sppserve: wrote", *statsPath)
		}
	}
}
