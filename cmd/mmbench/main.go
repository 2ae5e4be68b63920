// Command mmbench regenerates the paper's evaluation: every figure and
// table of "Efficient Multi-Model Management" (EDBT 2023), plus the
// ablations this repository adds.
//
// Usage:
//
//	mmbench -exp storage            # Figure 3
//	mmbench -exp storage-rates      # §4.2 update-rate variation
//	mmbench -exp storage-size       # §4.2 FFNN-69 variation
//	mmbench -exp storage-cifar      # §4.2 CIFAR variation
//	mmbench -exp storage-overhead   # §4.2 U1 overhead vs MMlib-base
//	mmbench -exp tts -setup m1      # Figure 4a
//	mmbench -exp tts -setup server  # Figure 4b
//	mmbench -exp ttr -setup m1      # Figure 5a
//	mmbench -exp ttr -setup server  # Figure 5b
//	mmbench -exp ttr-extrapolate    # §4.4 realistic-training intuition
//	mmbench -exp accident           # selective post-accident recovery
//	mmbench -exp quality            # stale-vs-retrained model loss per cycle
//	mmbench -exp ablate-snapshot    # Update snapshot-interval ablation
//	mmbench -exp ablate-variants    # Update hash-granularity/compression
//	mmbench -exp ablate-blob-layout # O1/O3: per-model vs single blob
//	mmbench -exp advisor            # §4.5 heuristic approach selection
//	mmbench -exp all                # everything above
//
// Paper scale is -n 5000 -mode perturb (full training at n=5000 works
// but takes correspondingly longer; perturb mode produces identical
// storage and timing behaviour, see the workload package docs). The
// default scale keeps a laptop run under a minute.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/experiments"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/latency"
	"github.com/mmm-go/mmm/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (see package docs)")
		n       = flag.Int("n", 1000, "number of models (paper: 5000)")
		cycles  = flag.Int("cycles", 3, "number of U3 update cycles")
		setup   = flag.String("setup", "m1", "hardware profile: m1, server, or zero")
		runs    = flag.Int("runs", 5, "timing runs per measurement (median reported)")
		mode    = flag.String("mode", "train", "update mode: train or perturb")
		arch    = flag.String("arch", "FFNN-48", "architecture: FFNN-48, FFNN-69, CIFAR")
		samples = flag.Int("samples", 60, "training samples per update dataset")
		epochs  = flag.Int("epochs", 1, "training epochs per update")
		rate    = flag.Float64("rate", 0.10, "total update rate per cycle (half full, half partial)")
		workers = flag.Int("workers", 1, "save/recover concurrency (1 = paper-faithful serial timing)")
		csv     = flag.Bool("csv", false, "emit series as CSV instead of tables")
		metrics = flag.Bool("metrics", false, "print a metrics snapshot after each experiment (suppressed under -csv)")
	)
	flag.Parse()

	s, ok := latency.ByName(*setup)
	if !ok {
		fmt.Fprintf(os.Stderr, "mmbench: unknown setup %q\n", *setup)
		os.Exit(2)
	}
	opts := experiments.Options{
		ArchName:          *arch,
		NumModels:         *n,
		Cycles:            *cycles,
		FullRate:          *rate / 2,
		PartialRate:       *rate / 2,
		Setup:             s,
		Runs:              *runs,
		Mode:              workload.Mode(*mode),
		SamplesPerDataset: *samples,
		Epochs:            *epochs,
		Seed:              2023,
		Workers:           *workers,
	}

	run := func(name string) error {
		start := time.Now()
		fmt.Printf("== %s ==\n", name)
		// Each experiment gets a clean metrics window so the snapshot
		// attributes operations to this experiment alone.
		obs.Default.Reset()
		defer func() {
			if *metrics && !*csv {
				fmt.Printf("-- metrics (%s) --\n%s", name, obs.Default.Summary())
			}
			fmt.Printf("   (%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}()
		switch name {
		case "storage":
			s, err := experiments.RunStorage(opts)
			if err != nil {
				return err
			}
			return emitSeries(s, *csv)
		case "storage-rates":
			res, err := experiments.RunStorageRateSweep(opts, []float64{0.10, 0.20, 0.30})
			if err != nil {
				return err
			}
			for i, s := range res.Series {
				fmt.Printf("-- update rate %.0f%% --\n", res.Rates[i]*100)
				if err := emitSeries(s, *csv); err != nil {
					return err
				}
			}
			return nil
		case "storage-size":
			cmp, err := experiments.RunStorageSizeComparison(opts, "FFNN-48", "FFNN-69")
			if err != nil {
				return err
			}
			fmt.Printf("parameter ratio %s/%s = %.3f\n", cmp.LargeArch, cmp.SmallArch, cmp.ParamRatio)
			fmt.Printf("%-12s%14s%14s\n", "approach", "U1 ratio", "last-U3 ratio")
			for _, a := range experiments.ApproachOrder {
				fmt.Printf("%-12s%14.3f%14.3f\n", a, cmp.U1Ratio[a], cmp.U3Ratio[a])
			}
			return nil
		case "storage-cifar":
			o := opts
			o.ArchName = "CIFAR"
			if o.Mode == workload.ModeTrain && o.NumModels > 200 {
				fmt.Println("note: CIFAR training at this scale is slow; using perturb mode (storage-identical)")
				o.Mode = workload.ModePerturb
			}
			s, err := experiments.RunStorage(o)
			if err != nil {
				return err
			}
			return emitSeries(s, *csv)
		case "storage-overhead":
			rep, err := experiments.RunStorageOverhead(opts)
			if err != nil {
				return err
			}
			fmt.Printf("raw parameter payload: %.3f MB\n", rep.ParamPayloadMB)
			fmt.Printf("%-12s%12s%22s\n", "approach", "U1 MB", "saving vs MMlib-base")
			for _, a := range experiments.ApproachOrder {
				fmt.Printf("%-12s%12.3f%21.1f%%\n", a, rep.U1MB[a], rep.SavingVsMMlibPct[a])
			}
			return nil
		case "tts":
			s, err := experiments.RunTTS(opts)
			if err != nil {
				return err
			}
			return emitSeries(s, *csv)
		case "ttr":
			s, err := experiments.RunTTR(opts, experiments.PaperProvenanceBudget())
			if err != nil {
				return err
			}
			return emitSeries(s, *csv)
		case "ttr-extrapolate":
			ext, err := experiments.RunProvenanceExtrapolation(opts, 90000, 10)
			if err != nil {
				return err
			}
			fmt.Print(ext.Table())
			return nil
		case "ablate-snapshot":
			o := opts
			if o.Cycles < 4 {
				o.Cycles = 5
			}
			a, err := experiments.RunSnapshotAblation(o, []int{0, 2, 3})
			if err != nil {
				return err
			}
			fmt.Print(a.Table())
			return nil
		case "ablate-variants":
			a, err := experiments.RunUpdateVariantAblation(opts)
			if err != nil {
				return err
			}
			fmt.Print(a.Table())
			return nil
		case "ablate-blob-layout":
			a, err := experiments.RunBlobLayoutAblation(opts)
			if err != nil {
				return err
			}
			fmt.Print(a.Table())
			return nil
		case "quality":
			q, err := experiments.RunModelQuality(opts)
			if err != nil {
				return err
			}
			fmt.Print(q.Table())
			return nil
		case "accident":
			a, err := experiments.RunAccidentRecovery(opts, 5)
			if err != nil {
				return err
			}
			fmt.Print(a.Table())
			return nil
		case "advisor":
			return runAdvisor(opts)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{
			"storage", "storage-rates", "storage-size", "storage-cifar",
			"storage-overhead", "tts", "ttr", "ttr-extrapolate",
			"accident", "quality",
			"ablate-snapshot", "ablate-variants", "ablate-blob-layout", "advisor",
		}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// emitSeries prints a series as a table or CSV.
func emitSeries(s *experiments.Series, asCSV bool) error {
	if asCSV {
		return s.WriteCSV(os.Stdout)
	}
	fmt.Print(s.Table())
	return nil
}

// runAdvisor demonstrates the §4.5 heuristic on three scenarios.
func runAdvisor(opts experiments.Options) error {
	scenarios := []struct {
		label string
		s     core.Scenario
	}{
		{"archive-heavy (paper default: save everything, recover rarely)", core.Scenario{
			NumModels: opts.NumModels, ParamCount: 4993, UpdateRate: 0.10,
			SavesPerRecovery: 1000, RetrainCost: 30 * time.Second,
			StorageWeight: 10, SaveWeight: 1, RecoverWeight: 0.01,
		}},
		{"balanced (storage matters, recoveries must stay moderate)", core.Scenario{
			NumModels: opts.NumModels, ParamCount: 4993, UpdateRate: 0.10,
			SavesPerRecovery: 1000, RetrainCost: 10 * time.Minute,
			StorageWeight: 5, SaveWeight: 1, RecoverWeight: 2,
		}},
		{"recovery-critical (post-incident analysis is frequent)", core.Scenario{
			NumModels: opts.NumModels, ParamCount: 4993, UpdateRate: 0.10,
			SavesPerRecovery: 2, RetrainCost: 30 * time.Second,
			StorageWeight: 0.01, SaveWeight: 0.1, RecoverWeight: 10,
		}},
	}
	for _, sc := range scenarios {
		rec, err := core.Advise(sc.s)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n  -> %s (%s)\n", sc.label, rec.Approach, rec.Rationale)
		for _, r := range rec.Ranking {
			fmt.Printf("     %-12s cost %.3f\n", r.Name, r.Cost)
		}
	}
	return nil
}
