// Command dveserve runs the sweep fabric: an HTTP front end over the
// experiment runner and the content-addressed result cache, so repeated
// sweeps across a team or a CI fleet pay for each simulation cell once.
// One binary covers all three roles:
//
//	# A lone node (the default): intake + in-process pool.
//	dveserve -addr :8437 -cache .dvecache -scale quick -workers 4 -queue 64
//
//	# A coordinator plus N workers. Cells are leased to workers with a
//	# heartbeat deadline; a worker that dies mid-cell costs one lease TTL,
//	# after which the cell is re-enqueued (and, with no healthy workers
//	# left, the coordinator's own pool degrades gracefully to cover).
//	dveserve -role coordinator -addr :8437 -cache .dvecache -lease-ttl 30s
//	dveserve -role worker -peer http://coord:8437 -id w1 -workers 4
//
//	curl -X POST localhost:8437/run \
//	     -d '{"workloads":["fft","lbm"],"protocols":["baseline","deny"]}'
//	curl localhost:8437/result/<key>
//	curl localhost:8437/metrics
//	curl localhost:8437/metrics/prom   # Prometheus text format
//	curl localhost:8437/healthz        # liveness
//	curl localhost:8437/readyz        # readiness (503 once draining)
//
// SIGTERM (or Ctrl-C) drains gracefully: /readyz flips to 503 first so load
// balancers stop routing, then intake closes with 503, queued cells finish
// (on workers or the local pool), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dve/internal/experiments"
	"dve/internal/obslog"
	"dve/internal/results"
	"dve/internal/serve"
	"dve/internal/stats"
)

// openLog builds the structured event logger from the -log/-log-level
// flags. This is the one place dveserve reads the wall clock for
// observability: BaseMicros anchors the injected monotonic clock to the Unix
// epoch once at startup, so internal packages stay off time.Now (the
// determinism analyzer enforces that scope). An empty path disables logging
// entirely (the nil logger costs one branch per site).
func openLog(path, level string) (*obslog.Logger, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	lv, err := obslog.ParseLevel(level)
	if err != nil {
		return nil, nil, err
	}
	var w *os.File
	closeFn := func() {}
	switch path {
	case "stderr", "-":
		w = os.Stderr
	default:
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, fmt.Errorf("-log: %w", err)
		}
		w = f
		closeFn = func() { f.Close() }
	}
	sw := stats.StartWallClock()
	return obslog.New(obslog.Options{
		Min:        lv,
		Clock:      sw.Elapsed,
		BaseMicros: time.Now().UnixMicro(),
		Sink:       obslog.NewJSONSink(w),
	}), closeFn, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8437", "listen address (coordinator/solo roles)")
		cacheDir = flag.String("cache", ".dvecache", "result cache directory (coordinator/solo roles)")
		scale    = flag.String("scale", "quick", "quick|standard|full")
		workers  = flag.Int("workers", 4, "simulation pool size (worker role: concurrent cells)")
		queue    = flag.Int("queue", 64, "queued-cell bound (enqueues past it get 429)")
		role     = flag.String("role", serve.RoleSolo, "solo|coordinator|worker")
		peer     = flag.String("peer", "", "coordinator base URL (worker role)")
		id       = flag.String("id", "", "worker name (worker role; default host:pid)")
		leaseTTL = flag.Duration("lease-ttl", 30*time.Second,
			"how long a worker may hold a cell between heartbeats before it is re-enqueued")
		maxAttempts = flag.Int("max-attempts", 5, "lease grants per cell before it is poisoned")
		drainGrace  = flag.Duration("drain-grace", 0,
			"pause between flipping /readyz and closing intake on shutdown")
		logPath = flag.String("log", "",
			"structured JSON event log destination: a file path, or stderr|- (empty = disabled)")
		logLevel = flag.String("log-level", "info", "debug|info|warn|error")
	)
	flag.Parse()

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	log, closeLog, err := openLog(*logPath, *logLevel)
	if err != nil {
		fatal(err)
	}
	defer closeLog()

	if *role == "worker" {
		runWorker(*peer, *id, *workers, sc, log)
		return
	}

	store, err := results.Open(*cacheDir)
	if err != nil {
		fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Runner: experiments.Runner{
			Scale:       sc,
			Parallelism: *workers,
			Cache:       store,
			Log:         log,
		},
		Workers:     *workers,
		QueueDepth:  *queue,
		Role:        *role,
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
		DrainGrace:  *drainGrace,
		Log:         log,
	})
	if err != nil {
		fatal(err)
	}
	srv.Start()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dveserve: %s listening on %s (scale %s, %d workers, queue %d, lease-ttl %s, cache %s)\n",
		*role, *addr, *scale, *workers, *queue, *leaseTTL, store.Dir())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "dveserve: draining (queued cells will finish)")
	srv.Drain()
	if err := hs.Shutdown(context.Background()); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dveserve: drained; cache %s\n", store.Stats())
}

// runWorker runs n fabric worker loops against the coordinator at peer
// until SIGTERM. Workers hold no cache: results travel in the complete RPC
// and the coordinator's store is authoritative.
func runWorker(peer, id string, n int, sc experiments.Scale, log *obslog.Logger) {
	if peer == "" {
		fatal(fmt.Errorf("-role worker needs -peer <coordinator url>"))
	}
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if n <= 0 {
		n = 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := serve.NewWorker(serve.WorkerConfig{
			Coordinator: peer,
			ID:          fmt.Sprintf("%s/%d", id, i),
			Runner:      experiments.Runner{Scale: sc, Log: log},
			Log:         log,
		})
		if err != nil {
			fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
			st := w.Stats()
			fmt.Fprintf(os.Stderr, "dveserve: worker %s done: leases=%d completed=%d failed=%d abandoned=%d rpc-retries=%d\n",
				w.ID(), st.Leases, st.Completed, st.Failed, st.Abandoned, st.RPCRetries)
		}()
	}
	fmt.Fprintf(os.Stderr, "dveserve: %d worker loop(s) %s -> %s\n", n, id, peer)
	<-ctx.Done()
	wg.Wait()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dveserve:", err)
	os.Exit(1)
}
