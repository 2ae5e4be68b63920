// Command mmserve runs the multi-model management service over HTTP:
// a central manager that fleets push model sets to and analysts pull
// selected models from (the deployment picture of the paper's
// Figure 1).
//
// Usage:
//
//	mmserve -dir ./store -addr :8080
//
// Endpoints (see internal/server for the wire format):
//
//	GET  /healthz                                liveness
//	GET  /readyz                                 readiness (503 while draining)
//	GET  /api/approaches
//	GET  /api/{approach}/sets
//	POST /api/{approach}/sets                    multipart: manifest + params
//	GET  /api/{approach}/sets/{id}               lineage
//	GET  /api/{approach}/sets/{id}/params        full recovery
//	GET  /api/{approach}/sets/{id}/params?indices=1,5   selective recovery
//	GET  /api/{approach}/sets/{id}/params?partial=1     degraded recovery
//	GET  /api/cas/recipe/{approach}/{id}         pull protocol: chunk digest list
//	GET  /api/cas/chunk/{hash}?s={size}          pull protocol: one chunk (Range/If-Range resumable)
//	POST /api/{approach}/verify
//	POST /api/{approach}/prune                   {"keep": ["..."]}
//	POST /api/datasets                           register a dataset spec
//	GET  /api/datasets
//	GET  /api/version                            build + storage-policy stamp
//	POST /api/cluster/sync                       pull one set from a peer ({"approach","set_id","from"})
//	GET  /metrics                                Prometheus text format
//
// -dedup deduplicates saved blobs through the content-addressed chunk
// store; -codec compresses them with the named codec (none, zlib, or
// tlz). Both apply to every approach the server constructs. Save
// manifests may assert a codec; a mismatch with the server's -codec is
// rejected with 422 before anything is written.
//
// -cache-bytes bounds the in-memory serving-tier chunk cache (default
// 256 MiB): repeated recoveries of warm sets are answered from decoded
// chunks in memory instead of store reads plus decompression. Set 0 to
// disable; recovered bytes are identical either way.
//
// -durable-sync (on by default) fsyncs blob and document writes plus
// their parent directories at commit boundaries, upgrading the store's
// crash safety (atomic temp+rename) to power-failure safety. Disable
// only for throwaway stores.
//
// -scrub-interval D enables the self-healing background scrubber: it
// incrementally verifies chunk digests, recipes, and blob checksums
// (throttled by -scrub-rate), moves corrupt bodies to the
// quarantine namespace so reads fail fast instead of serving rot, and
// — with -repair-from URL naming a healthy peer — re-fetches damaged
// chunks by digest over the pull protocol and restores them. Progress
// is exported as mmm_scrub_* metrics and the cursor persists across
// restarts.
//
// On SIGINT/SIGTERM the server drains gracefully: /readyz flips to
// 503, new API requests are rejected with Retry-After, and in-flight
// requests get -drain-timeout to finish before being canceled (a
// canceled save rolls back its partial writes).
//
// With -debug-addr, net/http/pprof profiling handlers are served on a
// second, separate listener (keep it loopback-only; profiles expose
// internals that the data API should not).
//
// With -chaos-seed, the API listener injects deterministic connection
// faults (resets, truncations, latency) — a fault drill against the
// real binary, not for production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	mmm "github.com/mmm-go/mmm"
	"github.com/mmm-go/mmm/internal/netchaos"
	"github.com/mmm-go/mmm/internal/server"
)

func main() {
	var (
		dir        = flag.String("dir", "./mmstore-data", "store directory")
		addr       = flag.String("addr", ":8080", "listen address")
		dedup      = flag.Bool("dedup", false, "route saves through the content-addressed deduplicating chunk store")
		codecID    = flag.String("codec", "", "compression codec for saves: none, zlib, or tlz (default none); clients asserting a different codec in their manifest are rejected with 422")
		cacheBytes = flag.Int64("cache-bytes", 256<<20,
			"in-memory serving-tier chunk cache budget in bytes; repeated recoveries of warm sets skip store reads and decompression (0 = disabled)")
		debugAddr = flag.String("debug-addr", "", "optional address for net/http/pprof (e.g. localhost:6060); disabled when empty")

		drainTimeout = flag.Duration("drain-timeout", server.DefaultDrainTimeout,
			"how long in-flight requests get to finish after SIGINT/SIGTERM before being canceled")
		readTimeout = flag.Duration("read-timeout", 0,
			"max duration for reading an entire request, body included (0 = no limit)")
		writeTimeout = flag.Duration("write-timeout", 0,
			"max duration for writing a response (0 = no limit)")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute,
			"max keep-alive idle time per connection (0 = no limit)")
		requestTimeout = flag.Duration("request-timeout", 0,
			"per-request handling deadline applied via context (0 = no deadline)")
		maxBodyBytes = flag.Int64("max-body-bytes", 0,
			"request body cap in bytes; oversized bodies get 413 (0 = handler-level limits only)")

		chaosSeed = flag.Uint64("chaos-seed", 0,
			"inject deterministic connection faults on the API listener, seeded here (0 = disabled)")
		chaosMaxFaults = flag.Int("chaos-max-faults", 0,
			"cap on injected faults when -chaos-seed is set (0 = unlimited)")

		durableSync = flag.Bool("durable-sync", true,
			"fsync blob and document writes (and their directories) at commit boundaries so saved sets survive power loss, not just crashes")
		scrubInterval = flag.Duration("scrub-interval", 0,
			"idle time between background integrity-scrub passes; corrupt bodies are quarantined so reads fail fast instead of returning rot (0 = scrubbing disabled)")
		scrubRate = flag.Int64("scrub-rate", 8<<20,
			"background scrub read-throughput cap in bytes/sec so verification never starves serving (0 = unlimited)")
		repairFrom = flag.String("repair-from", "",
			"URL of a healthy mmserve peer; the background scrubber re-fetches quarantined or missing chunks from it by digest and restores them")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stores, err := mmm.OpenDirStoresWith(*dir, mmm.StoreOptions{DurableSync: *durableSync})
	if err != nil {
		log.Fatalf("mmserve: %v", err)
	}
	api := server.NewWithConfig(stores, nil, server.Config{
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBodyBytes,
		Codec:          *codecID,
		CacheBytes:     *cacheBytes,
		Dedup:          *dedup,
	})

	if *debugAddr != "" {
		go serveDebug(ctx, *debugAddr, *readTimeout, *writeTimeout, *idleTimeout)
	}

	if *scrubInterval > 0 {
		cfg := mmm.ScrubConfig{
			RateBytesPerSec: *scrubRate,
			Interval:        *scrubInterval,
			OnPass: func(r mmm.ScrubReport) {
				if len(r.Findings) > 0 || r.Quarantined > 0 || r.Repaired > 0 {
					log.Printf("scrub: %s", r)
				}
			},
		}
		if *repairFrom != "" {
			cfg.Fetcher = &mmm.ManagementClient{BaseURL: *repairFrom}
		}
		scrubber := mmm.NewScrubber(stores.Blobs, stores.Docs, cfg)
		go scrubber.Run(ctx)
		fmt.Printf("mmserve: background scrub every %v", *scrubInterval)
		if *repairFrom != "" {
			fmt.Printf(", repairing from %s", *repairFrom)
		}
		fmt.Println()
	}

	hs := &http.Server{
		Handler:           logging(api),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mmserve: %v", err)
	}
	if *chaosSeed != 0 {
		fmt.Printf("mmserve: CHAOS listener enabled (seed %d)\n", *chaosSeed)
		ln = netchaos.WrapListener(ln, netchaos.Config{
			Seed: *chaosSeed, Reset: 0.05, Truncate: 0.05,
			LatencyP: 0.10, Latency: 50 * time.Millisecond,
			MaxFaults: *chaosMaxFaults,
		})
	}

	fmt.Printf("mmserve: serving %s on %s\n", *dir, *addr)
	err = server.ServeListener(ctx, hs, api, ln, *drainTimeout)
	switch {
	case err == nil:
		fmt.Println("mmserve: drained cleanly")
	case errors.Is(err, context.DeadlineExceeded):
		log.Printf("mmserve: drain deadline (%v) passed; in-flight requests were canceled", *drainTimeout)
	default:
		log.Fatalf("mmserve: %v", err)
	}
}

// serveDebug runs the pprof handlers on their own mux and listener so
// profiling never shares a port (or an accidental route) with the data
// API. It shuts down when ctx is canceled.
func serveDebug(ctx context.Context, addr string, readTimeout, writeTimeout, idleTimeout time.Duration) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{
		Addr: addr, Handler: mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	fmt.Printf("mmserve: pprof on %s/debug/pprof/\n", addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("mmserve: pprof server: %v", err)
	}
}

// logging is a minimal request logger.
func logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
