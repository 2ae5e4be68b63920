// Command mmstore manages model sets in on-disk stores: it runs the
// paper's deployment lifecycle end to end from the command line.
//
// Usage:
//
//	mmstore -dir ./store init    -approach baseline -n 100 [-arch FFNN-48] [-seed 2023]
//	mmstore -dir ./store cycle   -approach baseline -base <set-id>
//	mmstore -dir ./store recover -approach baseline -set  <set-id> [-verify-against <set-id>]
//	mmstore -dir ./store list    -approach baseline
//	mmstore -dir ./store inspect -approach baseline -set <set-id>
//	mmstore -dir ./store verify  -approach baseline
//	mmstore -dir ./store fsck    [-repair]
//	mmstore -dir ./store scrub   [-repair-from URL] [-full] [-scrub-rate N]
//	mmstore -dir ./store du
//	mmstore -dir ./store gc
//	mmstore -dir ./store prune   -approach baseline -keep <id>[,<id>...]
//	mmstore -dir ./store export  -approach update -set <set-id> -out chain.tar
//	mmstore -dir ./store import  -in chain.tar
//	mmstore -dir ./store extract -approach baseline -set <set-id> -model 42 -out cell42.mmm
//
// init creates a fleet of freshly initialized models and saves it (use
// case U1). cycle recovers a base set, runs one deterministic update
// cycle on it (5% full + 5% partial retraining by default), and saves
// the result (use case U3). recover loads a set; with -verify-against
// it recovers a second set and reports whether they are bit-identical.
// fsck checks the whole store across all approaches — blob checksums,
// set completeness, orphaned crash debris — and with -repair deletes
// the orphans. -retries N retries transient store I/O errors.
//
// scrub runs one full verification pass over chunks, recipes and raw
// blobs: corrupt bodies are moved to the quarantine
// namespace (reads fail fast, the damaged bytes are preserved) and,
// with -repair-from URL naming a healthy mmserve peer, re-fetched by
// digest over the pull protocol and restored in place. -full restarts
// from the beginning of the keyspace instead of resuming the persisted
// cursor; -scrub-rate caps read throughput in bytes/sec.
//
// -dedup routes saves through the content-addressed chunk store:
// identical parameter chunks are stored once across sets and
// approaches. du reports per-set logical versus physical bytes and the
// store-wide dedup ratio; gc deletes unreferenced chunks left behind
// by crashes.
//
// -codec ID compresses saved blobs with the named codec (none, zlib,
// or tlz): Update diff blobs directly, and every blob's chunk bodies
// when combined with -dedup. Codec IDs are persisted with the data and
// every encoded artifact is self-describing, so any mmstore reads any
// store regardless of the -codec it was written with; du and inspect
// show each set's codec.
//
// With -server URL, commands run against a remote mmserve instead of a
// local directory: the client waits for /readyz (bounded by
// -wait-ready), retries idempotent requests with backoff, and saves
// under a generated Idempotency-Key so retries cannot duplicate sets.
// recover additionally accepts -partial for degraded recovery.
// cycle, export, and import need direct store access and stay
// local-only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	mmm "github.com/mmm-go/mmm"
	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/workload"
)

func main() {
	// Ctrl-C cancels the operation in flight; save rollback guarantees
	// the store is left without a half-written set.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "mmstore: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mmstore", flag.ContinueOnError)
	var (
		dir      = fs.String("dir", "./mmstore-data", "store directory")
		approach = fs.String("approach", "baseline", "baseline, update, provenance, or mmlib")
		n        = fs.Int("n", 100, "fleet size for init")
		archName = fs.String("arch", "FFNN-48", "architecture for init")
		seed     = fs.Uint64("seed", 2023, "fleet seed")
		base     = fs.String("base", "", "base set ID for cycle")
		setID    = fs.String("set", "", "set ID for recover/inspect")
		verify   = fs.String("verify-against", "", "second set ID to compare with after recover")
		rate     = fs.Float64("rate", 0.10, "total update rate per cycle")
		samples  = fs.Int("samples", 100, "training samples per update dataset")
		workers  = fs.Int("workers", 1, "save/recover concurrency (1 = serial)")
		retries  = fs.Int("retries", 1, "total tries per store operation (>1 retries transient I/O errors)")
		repair   = fs.Bool("repair", false, "fsck: delete orphaned crash debris")
		dedup    = fs.Bool("dedup", false, "route saves through the content-addressed deduplicating chunk store")
		codecID  = fs.String("codec", "", "compression codec for saves: none, zlib, or tlz (default none)")
		verbose  = fs.Bool("v", false, "print a metrics snapshot to stderr after the command")
	)
	keep := fs.String("keep", "", "comma-separated set IDs to keep for prune")
	out := fs.String("out", "", "output path for export/extract")
	in := fs.String("in", "", "input archive path for import")
	modelIdx := fs.Int("model", -1, "model index for extract")
	serverURL := fs.String("server", "", "manage a remote mmserve at this URL instead of a local store directory")
	waitReady := fs.Duration("wait-ready", 10*time.Second, "with -server: how long to wait for the server's /readyz before the first request")
	partial := fs.Bool("partial", false, "with -server: recover in degraded mode, skipping damaged models and reporting them")
	pullCache := fs.String("pull-cache", "", "with -server: directory for the local chunk cache; recoveries diff against it and fetch only missing chunks")
	repairFrom := fs.String("repair-from", "", "scrub: URL of a healthy mmserve peer to re-fetch quarantined or missing chunks from")
	full := fs.Bool("full", false, "scrub: restart from the beginning of the keyspace instead of resuming the cursor")
	scrubRate := fs.Int64("scrub-rate", 0, "scrub: cap verification read throughput in bytes/sec (0 = unlimited)")
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command: init, cycle, recover, list, inspect, verify, fsck, scrub, du, gc, or prune")
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *serverURL != "" {
		return runRemote(ctx, cmd, remoteFlags{
			server: *serverURL, approach: *approach, setID: *setID,
			verify: *verify, keep: *keep, out: *out, archName: *archName,
			n: *n, seed: *seed, modelIdx: *modelIdx, repair: *repair,
			partial: *partial, waitReady: *waitReady, pullCache: *pullCache,
		})
	}
	if *verbose {
		// Deferred so the snapshot also covers failed commands — the
		// error counters are exactly what -v is for then.
		defer func() {
			fmt.Fprintf(os.Stderr, "\nmetrics:\n%s", mmm.DefaultMetrics.Summary())
		}()
	}

	stores, err := mmm.OpenDirStoresWith(*dir, mmm.StoreOptions{RetryAttempts: *retries})
	if err != nil {
		return err
	}
	appr, err := buildApproach(*approach, stores, *workers, *dedup, *codecID)
	if err != nil {
		return err
	}

	cfg := mmm.DefaultWorkload()
	arch, err := mmm.ArchitectureByName(*archName)
	if err != nil {
		return err
	}
	cfg.Arch = arch
	cfg.NumModels = *n
	cfg.Seed = *seed
	cfg.FullUpdateRate = *rate / 2
	cfg.PartialUpdateRate = *rate / 2
	cfg.SamplesPerDataset = *samples

	switch cmd {
	case "init":
		fleet, err := mmm.NewFleet(cfg, stores.Datasets)
		if err != nil {
			return err
		}
		res, err := appr.SaveContext(ctx, mmm.SaveRequest{Set: fleet.Set})
		if err != nil {
			return err
		}
		fmt.Printf("saved initial set %s: %d models, %.3f MB, %d store writes\n",
			res.SetID, fleet.Set.Len(), float64(res.BytesWritten)/1e6, res.WriteOps)
		return nil

	case "cycle":
		if *base == "" {
			return fmt.Errorf("cycle requires -base")
		}
		set, err := appr.RecoverContext(ctx, *base)
		if err != nil {
			return err
		}
		cfg.NumModels = set.Len()
		cfg.Arch = set.Arch
		depth, err := chainDepth(appr, *base)
		if err != nil {
			return err
		}
		fleet, err := workload.Resume(cfg, stores.Datasets, set, depth)
		if err != nil {
			return err
		}
		updates, err := fleet.RunCycle()
		if err != nil {
			return err
		}
		res, err := appr.SaveContext(ctx, mmm.SaveRequest{
			Set: fleet.Set, Base: *base, Updates: updates, Train: fleet.TrainInfo(),
		})
		if err != nil {
			return err
		}
		fmt.Printf("saved derived set %s: %d models updated, %.3f MB, %d store writes\n",
			res.SetID, len(updates), float64(res.BytesWritten)/1e6, res.WriteOps)
		return nil

	case "recover":
		if *setID == "" {
			return fmt.Errorf("recover requires -set")
		}
		set, err := appr.RecoverContext(ctx, *setID)
		if err != nil {
			return err
		}
		fmt.Printf("recovered %s: %d models of %s (%d parameters each)\n",
			*setID, set.Len(), set.Arch.Name, set.Arch.ParamCount())
		if *verify != "" {
			other, err := appr.RecoverContext(ctx, *verify)
			if err != nil {
				return err
			}
			if set.Equal(other) {
				fmt.Printf("%s and %s are bit-identical\n", *setID, *verify)
			} else {
				fmt.Printf("%s and %s differ\n", *setID, *verify)
			}
		}
		return nil

	case "list":
		ids, err := listSets(appr)
		if err != nil {
			return err
		}
		if len(ids) == 0 {
			fmt.Println("no sets saved")
			return nil
		}
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil

	case "inspect":
		if *setID == "" {
			return fmt.Errorf("inspect requires -set")
		}
		set, err := appr.RecoverContext(ctx, *setID)
		if err != nil {
			return err
		}
		depth, err := chainDepth(appr, *setID)
		if err != nil {
			return err
		}
		fmt.Printf("set:          %s\n", *setID)
		fmt.Printf("approach:     %s\n", appr.Name())
		fmt.Printf("models:       %d\n", set.Len())
		fmt.Printf("architecture: %s (%d parameters, %d bytes/model)\n",
			set.Arch.Name, set.Arch.ParamCount(), set.Arch.ParamBytes())
		fmt.Printf("chain depth:  %d\n", depth)
		if l, ok := appr.(core.Lineager); ok {
			chain, err := l.Lineage(*setID)
			if err != nil {
				return err
			}
			if len(chain) > 0 {
				codecName := chain[0].Codec
				if codecName == "" {
					codecName = "none"
				}
				fmt.Printf("codec:        %s\n", codecName)
			}
			fmt.Println("lineage (newest first):")
			for _, info := range chain {
				fmt.Printf("  %s  kind=%-7s depth=%d\n", info.SetID, info.Kind, info.Depth)
			}
		}
		return nil

	case "verify":
		v, ok := appr.(core.Verifier)
		if !ok {
			return fmt.Errorf("approach %s does not support verification", appr.Name())
		}
		issues, err := v.VerifyStore()
		if err != nil {
			return err
		}
		if len(issues) == 0 {
			fmt.Println("store consistent: no issues found")
			return nil
		}
		for _, i := range issues {
			fmt.Println(i)
		}
		return fmt.Errorf("%d issue(s) found", len(issues))

	case "fsck":
		report, err := mmm.Fsck(stores, mmm.FsckOptions{Repair: *repair})
		if report == nil {
			return err
		}
		fmt.Printf("checked %d set(s), verified %.3f MB of blob data\n",
			report.Sets, float64(report.BytesVerified)/1e6)
		for _, issue := range report.Issues {
			fmt.Println(issue)
		}
		if err != nil {
			return err
		}
		if n := report.DamagedCount(); n > 0 {
			return fmt.Errorf("store damaged: %d issue(s) concern committed data", n)
		}
		if len(report.Issues) > 0 && !*repair {
			return fmt.Errorf("%d orphan(s) found (rerun with -repair to delete)", len(report.Issues))
		}
		if report.Clean() {
			fmt.Println("store clean")
		}
		return nil

	case "scrub":
		cfg := mmm.ScrubConfig{RateBytesPerSec: *scrubRate}
		if *repairFrom != "" {
			cfg.Fetcher = &mmm.ManagementClient{BaseURL: *repairFrom}
		}
		s := mmm.NewScrubber(stores.Blobs, stores.Docs, cfg)
		if *full {
			s.ResetCursor()
		}
		report, err := s.RunPass(ctx)
		if err != nil {
			return err
		}
		fmt.Println(report)
		for _, f := range report.Findings {
			status := "found"
			switch {
			case f.Repaired:
				status = "repaired"
			case f.RepairError != "":
				status = "repair failed: " + f.RepairError
			case f.Quarantined:
				status = "quarantined"
			}
			fmt.Printf("  %s: %s (%s)\n", f.Key, f.Problem, status)
		}
		if n := report.Errors(); n > 0 {
			return fmt.Errorf("%d unhealed finding(s)", n)
		}
		return nil

	case "du":
		report, err := mmm.Du(stores)
		if err != nil {
			return err
		}
		printDu(report)
		return nil

	case "gc":
		report, err := mmm.GCStore(stores, mmm.DefaultMetrics)
		if err != nil {
			return err
		}
		fmt.Printf("deleted %d chunk(s) (%.3f MB), kept %d\n",
			report.ChunksDeleted, float64(report.BytesFreed)/1e6, report.ChunksKept)
		return nil

	case "prune":
		p, ok := appr.(core.Pruner)
		if !ok {
			return fmt.Errorf("approach %s does not support pruning", appr.Name())
		}
		var keepIDs []string
		if *keep != "" {
			keepIDs = strings.Split(*keep, ",")
		}
		report, err := p.Prune(keepIDs)
		if err != nil {
			return err
		}
		fmt.Printf("kept %d set(s), deleted %d, freed %.3f MB\n",
			len(report.Kept), len(report.Deleted), float64(report.FreedBytes)/1e6)
		for _, id := range report.Deleted {
			fmt.Println("deleted", id)
		}
		return nil

	case "export":
		if *setID == "" || *out == "" {
			return fmt.Errorf("export requires -set and -out")
		}
		e, ok := appr.(core.Exporter)
		if !ok {
			return fmt.Errorf("approach %s does not support export", appr.Name())
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := e.Export(*setID, f); err != nil {
			return err
		}
		info, err := f.Stat()
		if err != nil {
			return err
		}
		fmt.Printf("exported %s and its chain to %s (%.3f MB)\n",
			*setID, *out, float64(info.Size())/1e6)
		return nil

	case "extract":
		if *setID == "" || *out == "" || *modelIdx < 0 {
			return fmt.Errorf("extract requires -set, -model, and -out")
		}
		pr, ok := appr.(core.PartialRecoverer)
		if !ok {
			return fmt.Errorf("approach %s does not support selective recovery", appr.Name())
		}
		rec, err := pr.RecoverModelsContext(ctx, *setID, []int{*modelIdx})
		if err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := nn.SaveModel(rec.Models[*modelIdx], f); err != nil {
			return err
		}
		fmt.Printf("extracted model %d of %s to %s (%s, %d parameters)\n",
			*modelIdx, *setID, *out, rec.Arch.Name, rec.Arch.ParamCount())
		return nil

	case "import":
		if *in == "" {
			return fmt.Errorf("import requires -in")
		}
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := core.ImportArchive(stores, f); err != nil {
			return err
		}
		fmt.Printf("imported archive %s\n", *in)
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// buildApproach constructs the requested management approach.
func buildApproach(name string, stores mmm.Stores, workers int, dedup bool, codecID string) (mmm.Approach, error) {
	opts := []mmm.Option{mmm.WithConcurrency(workers)}
	if dedup {
		opts = append(opts, mmm.WithDedup())
	}
	if codecID != "" {
		opts = append(opts, mmm.WithCodec(codecID))
	}
	return core.Open(name, stores, opts...)
}

// printDu renders a storage-accounting report, local or remote.
func printDu(report *mmm.DuReport) {
	if len(report.Sets) == 0 {
		fmt.Println("no sets saved")
	}
	for _, s := range report.Sets {
		codecName := s.Codec
		if codecName == "" {
			codecName = "none"
		}
		fmt.Printf("%-11s %-28s codec %-5s logical %10.3f MB  physical %10.3f MB\n",
			s.Approach, s.SetID, codecName,
			float64(s.LogicalBytes)/1e6, float64(s.PhysicalBytes)/1e6)
	}
	fmt.Printf("store-wide: logical %.3f MB, physical %.3f MB (raw %.3f + chunks %.3f + recipes %.3f), %d chunk(s)\n",
		float64(report.LogicalBytes)/1e6, float64(report.PhysicalBytes)/1e6,
		float64(report.RawBytes)/1e6, float64(report.ChunkBytes)/1e6,
		float64(report.RecipeBytes)/1e6, report.Chunks)
	if report.PhysicalBytes > 0 {
		fmt.Printf("dedup ratio: %.2fx\n", float64(report.LogicalBytes)/float64(report.PhysicalBytes))
	}
	if report.QuarantinedCount > 0 {
		fmt.Printf("quarantine: %d corrupt bodies (%.3f MB) awaiting repair or fsck cleanup\n",
			report.QuarantinedCount, float64(report.QuarantinedBytes)/1e6)
	}
}

// listSets returns the saved set IDs of an approach.
func listSets(a mmm.Approach) ([]string, error) {
	switch v := a.(type) {
	case *core.Baseline:
		return v.SetIDs()
	case *core.Update:
		return v.SetIDs()
	case *core.Provenance:
		return v.SetIDs()
	case *core.MMlibBase:
		return v.SetIDs()
	}
	return nil, fmt.Errorf("approach %s does not list sets", a.Name())
}

// chainDepth returns the recovery-chain depth of a set (0 for
// approaches without chains).
func chainDepth(a mmm.Approach, setID string) (int, error) {
	switch v := a.(type) {
	case *core.Update:
		return v.ChainDepth(setID)
	case *core.Provenance:
		return v.ChainDepth(setID)
	}
	return 0, nil
}
