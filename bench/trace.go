package main

import (
	"crypto/sha256"
	"fmt"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/workload"
)

// cycles is the number of U3 iterations per lineage (the paper's three).
const cycles = 3

// selectCount is how many models one selective recovery asks for.
const selectCount = 16

// lineage is one fleet's recorded history: versions[0] is the U1 state
// and versions[k] the state after U3 cycle k. It is generated before
// timing; the program under test sees only these sets and update
// records. Versions share the models a cycle left untouched, so a
// lineage costs one full set plus the updated models of each cycle.
type lineage struct {
	versions []*core.ModelSet
	updates  [][]core.ModelUpdate // updates[k-1] turned versions[k-1] into versions[k]
	train    *core.TrainInfo
	reg      *dataset.Registry // holds the training data the updates name
}

// fleetConfig is the scenario every workload uses: FFNN-48, 5 % full +
// 5 % partial updates per cycle, real training on 60 samples for one
// epoch (the client-server workloads perturb instead; see
// callerLineages).
func fleetConfig(n int, seed uint64, factoryClone bool) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.NumModels = n
	cfg.SamplesPerDataset = 60
	cfg.Epochs = 1
	cfg.Seed = seed
	cfg.Mode = workload.ModeTrain
	cfg.FactoryClone = factoryClone
	return cfg
}

// genLineage runs U1 and the U3 cycles of one fleet and records every
// version.
func genLineage(cfg workload.Config, reg *dataset.Registry) (*lineage, error) {
	fleet, err := workload.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	ln := &lineage{train: fleet.TrainInfo(), reg: reg}
	ln.versions = append(ln.versions, fleet.Set.Clone())
	for c := 0; c < cycles; c++ {
		ups, err := fleet.RunCycle()
		if err != nil {
			return nil, err
		}
		prev := ln.versions[len(ln.versions)-1]
		next := &core.ModelSet{Arch: prev.Arch, Models: append([]*nn.Model(nil), prev.Models...)}
		for _, u := range ups {
			next.Models[u.ModelIndex] = fleet.Set.Models[u.ModelIndex].Clone()
		}
		ln.updates = append(ln.updates, ups)
		ln.versions = append(ln.versions, next)
	}
	return ln, nil
}

// saveRequest builds the save of version k on top of the set saved as
// base ("" for U1).
func (ln *lineage) saveRequest(k int, base string) core.SaveRequest {
	req := core.SaveRequest{Set: ln.versions[k], Base: base, Train: ln.train}
	if k > 0 {
		req.Updates = ln.updates[k-1]
	}
	return req
}

// setBytes is the logical parameter size of one set of the lineage.
func (ln *lineage) setBytes() int64 {
	v := ln.versions[0]
	return int64(v.Len()) * int64(v.Arch.ParamBytes())
}

// digest hashes every version's parameter bytes: two runs that print
// the same digest were given identical inputs.
func (ln *lineage) digest() string {
	h := sha256.New()
	var buf []byte
	for _, v := range ln.versions {
		for _, m := range v.Models {
			buf = m.AppendParamBytes(buf[:0])
			h.Write(buf)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// scheduleHash condenses the inputs and a description of the operation
// schedule: two runs that print the same hash were given the same work.
func (ln *lineage) scheduleHash(schedule string) string {
	sum := sha256.Sum256([]byte(ln.digest() + schedule))
	return fmt.Sprintf("%x", sum[:8])
}

// allModels lists every model index of set.
func allModels(set *core.ModelSet) []int {
	indices := make([]int, set.Len())
	for i := range indices {
		indices[i] = i
	}
	return indices
}

// partialMatches reports whether a selective recovery returned exactly
// the requested models of want, bit for bit.
func partialMatches(got *core.PartialRecovery, want *core.ModelSet, indices []int) bool {
	if got == nil || len(got.Models) != len(indices) {
		return false
	}
	for _, i := range indices {
		m, ok := got.Models[i]
		if !ok || !m.ParamsEqual(want.Models[i]) {
			return false
		}
	}
	return true
}
