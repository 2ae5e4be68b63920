// Command mmrouter runs the stateless cluster router: it fronts a set
// of mmserve nodes, placing every model set on R of them via a
// consistent-hash ring and speaking the exact same HTTP dialect as a
// single node — point any mmm client (mmstore -server, server.Client,
// another tool) at a router and saves become replicated, reads become
// fault-tolerant, and node loss stops being data loss.
//
// Usage:
//
//	mmrouter -addr :8090 -nodes node-a=http://10.0.0.1:8080,node-b=http://10.0.0.2:8080,node-c=http://10.0.0.3:8080
//
// Member names (the part before '=') are ring identities: keep them
// stable across restarts and address changes, or every rename
// reshuffles placement.
//
// Writes fan out to all R owners of the set and acknowledge once W
// (default: majority) committed; replicas save under one set ID the
// router mints deterministically from the idempotency key, so retries
// are exactly-once and every replica stores the set under the same
// name. Reads try the owners in ring order and fail over past dead
// nodes. POST /api/cluster/rebalance re-replicates after membership
// changes, moving only the chunk bytes each destination is missing.
//
// At startup (and on demand) the router preflights every member's
// GET /api/version and refuses to route to nodes whose build, codec,
// or dedup policy differs from the cluster's — mixed storage policies
// would silently break byte-identical recovery. -allow-mixed disables
// the refusal for rolling upgrades.
//
// Extra endpoints over a node's surface:
//
//	GET  /api/cluster/status      membership, health, quorum rules
//	POST /api/cluster/rebalance   re-replicate after membership change
//
// On SIGINT/SIGTERM the router drains exactly like a node: /readyz
// flips, new requests 503, in-flight fan-outs finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/mmm-go/mmm/internal/cluster"
	"github.com/mmm-go/mmm/internal/server"
)

func main() {
	var (
		addr  = flag.String("addr", ":8090", "listen address")
		nodes = flag.String("nodes", "", "comma-separated members as name=url (e.g. a=http://host:8080,b=http://host2:8080)")

		replicas = flag.Int("replicas", 2, "replication factor R: how many nodes hold each set")
		quorumW  = flag.Int("write-quorum", 0, "acks a save needs before the router acknowledges (0 = majority of owners)")
		vnodes   = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the hash ring")

		probeInterval = flag.Duration("probe-interval", 2*time.Second, "member health-probe period (0 = passive detection only)")
		allowMixed    = flag.Bool("allow-mixed", false, "route to members whose build or storage policy mismatches (rolling upgrades only)")

		drainTimeout = flag.Duration("drain-timeout", server.DefaultDrainTimeout,
			"how long in-flight requests get to finish after SIGINT/SIGTERM before being canceled")
		requestTimeout = flag.Duration("request-timeout", 0,
			"per-request handling deadline applied via context (0 = no deadline)")
		maxBodyBytes = flag.Int64("max-body-bytes", 0,
			"request body cap in bytes; oversized bodies get 413 (0 = handler-level limits only)")
		readTimeout = flag.Duration("read-timeout", 0,
			"max duration for reading an entire request, body included (0 = no limit)")
		writeTimeout = flag.Duration("write-timeout", 0,
			"max duration for writing a response (0 = no limit)")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute,
			"max keep-alive idle time per connection (0 = no limit)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rt := cluster.NewRouter(nil, cluster.RouterConfig{
		Replicas:       *replicas,
		WriteQuorum:    *quorumW,
		VNodes:         *vnodes,
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBodyBytes,
		AllowMixed:     *allowMixed,
	})
	n, err := addMembers(rt, *nodes)
	if err != nil {
		log.Fatalf("mmrouter: %v", err)
	}
	if n == 0 {
		log.Fatalf("mmrouter: -nodes must name at least one member (name=url,...)")
	}

	// Version preflight: fail loudly on a mixed cluster, but keep
	// serving — the incompatible members are excluded, and operators
	// can fix and re-check without a restart.
	preflightCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	statuses, err := rt.CheckMembers(preflightCtx)
	cancel()
	if err != nil {
		log.Printf("mmrouter: version preflight: %v", err)
	}
	for _, ms := range statuses {
		state := "up"
		if ms.Down {
			state = "DOWN"
		}
		if ms.Incompatible != "" {
			state = "REFUSED: " + ms.Incompatible
		}
		fmt.Printf("mmrouter: member %s (%s): %s\n", ms.Name, ms.URL, state)
	}

	if *probeInterval > 0 {
		rt.StartProbing(ctx, *probeInterval)
	}

	hs := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mmrouter: %v", err)
	}
	fmt.Printf("mmrouter: routing %d members on %s (R=%d)\n", n, *addr, *replicas)
	err = server.ServeListener(ctx, hs, rt, ln, *drainTimeout)
	switch {
	case err == nil:
		fmt.Println("mmrouter: drained cleanly")
	case errors.Is(err, context.DeadlineExceeded):
		log.Printf("mmrouter: drain deadline (%v) passed; in-flight requests were canceled", *drainTimeout)
	default:
		log.Fatalf("mmrouter: %v", err)
	}
}

// addMembers parses "name=url,name=url" and registers each member.
func addMembers(rt *cluster.Router, spec string) (int, error) {
	if strings.TrimSpace(spec) == "" {
		return 0, nil
	}
	n := 0
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url, ok := strings.Cut(entry, "=")
		if !ok || name == "" || url == "" {
			return n, fmt.Errorf("bad -nodes entry %q, want name=url", entry)
		}
		if err := rt.AddMember(name, url); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
