package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/hashing"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/rng"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/cache"
	"github.com/mmm-go/mmm/internal/storage/cas"
	"github.com/mmm-go/mmm/internal/storage/docstore"
)

// The layers below have no seam a wrapper could time, so the traced run
// drives each of them directly on the workload's own bytes: the first
// driveModels models of U1 and of U3-1. Operation counts are fixed; a
// throughput is bytes over the time of one pass, a latency the median of
// rangeReads single operations.
const (
	driveModels = 512
	rangeReads  = 200
	trainReps   = 20
	codecBytes  = 4 << 20
	docCount    = 500
	cacheKeys   = 200
)

func mbPerSec(n int, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }

func microseconds(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// best runs fn reps times and returns the shortest time: a direct drive
// reports what the layer can do, not what else the machine was doing.
func best(reps int, fn func() error) (time.Duration, error) {
	var shortest time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < shortest {
			shortest = d
		}
	}
	return shortest, nil
}

// medianLatency times each of n calls of fn and returns the median.
func medianLatency(n int, fn func(i int) error) (time.Duration, error) {
	samples := make([]float64, n)
	for i := range samples {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(start))
	}
	return time.Duration(median(samples)), nil
}

// driveLayers measures the seam-less layers and writes their metrics to
// out. mmlibModels is how many models of U1 the MMlib-base reference
// row saves.
func driveLayers(ln *lineage, rc *runConfig, mmlibModels int, out map[string]float64) error {
	v0 := ln.versions[0]
	m := min(driveModels, v0.Len())
	per := v0.Arch.ParamBytes()
	offsets := rng.New(rc.seed).Derive("drive").Sample(m, min(rangeReads, m))
	rangeOf := func(i int) int64 { return int64(offsets[i%len(offsets)]) * int64(per) }

	data0, data1, err := driveNN(ln, m, out)
	if err != nil {
		return fmt.Errorf("nn drive: %w", err)
	}
	d, _ := best(3, func() error {
		for _, mod := range v0.Models[:m] {
			hashing.ModelList(mod)
		}
		return nil
	})
	out["hashing.model_mb_s"] = mbPerSec(len(data0), d)

	if err := driveCAS(data0, data1, per, rangeOf, out); err != nil {
		return fmt.Errorf("cas drive: %w", err)
	}
	for _, id := range []string{"zlib", "tlz"} {
		if err := driveCodec(id, data0[:min(len(data0), codecBytes)], per, out); err != nil {
			return fmt.Errorf("codec drive: %w", err)
		}
	}
	driveCache(per, out)
	if err := driveBlobstore(data0, per, rangeOf, out); err != nil {
		return fmt.Errorf("blobstore drive: %w", err)
	}
	if err := driveDocstore(out); err != nil {
		return fmt.Errorf("docstore drive: %w", err)
	}
	if err := driveDir(rc, data0, out); err != nil {
		return fmt.Errorf("backend drive: %w", err)
	}
	if err := driveMMlib(ln, rc, mmlibModels, out); err != nil {
		return fmt.Errorf("mmlib drive: %w", err)
	}
	return nil
}

// driveNN measures parameter serialisation both ways and one training
// step, and returns the serialised bytes of the first m models of U1 and
// of U3-1 for the byte-level drives.
func driveNN(ln *lineage, m int, out map[string]float64) (data0, data1 []byte, err error) {
	v0, v1 := ln.versions[0], ln.versions[1]
	per := v0.Arch.ParamBytes()
	d, _ := best(3, func() error {
		data0 = data0[:0]
		for _, mod := range v0.Models[:m] {
			data0 = mod.AppendParamBytes(data0)
		}
		return nil
	})
	out["nn.serialize_mb_s"] = mbPerSec(len(data0), d)
	for _, mod := range v1.Models[:m] {
		data1 = mod.AppendParamBytes(data1)
	}

	d, err = best(3, func() error {
		for i := 0; i < m; i++ {
			mod, err := nn.NewModelUninitialized(v0.Arch)
			if err != nil {
				return err
			}
			if _, err := mod.SetParamBytes(data0[i*per : (i+1)*per]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out["nn.deserialize_mb_s"] = mbPerSec(len(data0), d)

	// One recorded update, replayed as Provenance recovery replays it.
	u := ln.updates[0][0]
	data, err := ln.reg.Materialize(u.DatasetID)
	if err != nil {
		return nil, nil, err
	}
	cfg := ln.train.Config
	cfg.Seed, cfg.TrainLayers = u.Seed, u.TrainLayers
	start := time.Now()
	for i := 0; i < trainReps; i++ {
		if _, err := nn.Train(v0.Models[u.ModelIndex].Clone(), data, cfg); err != nil {
			return nil, nil, err
		}
	}
	out["nn.train_us_per_sample"] = microseconds(time.Since(start)) / float64(trainReps*data.Len()*cfg.Epochs)
	return data0, data1, nil
}

func driveCAS(data0, data1 []byte, per int, rangeOf func(int) int64, out map[string]float64) error {
	hints := cas.Hints{Stride: per}
	reg := obs.New()
	d, _ := best(5, func() error {
		cas.Chunks(data0, 0, hints)
		return nil
	})
	out["cas.chunk_mb_s"] = mbPerSec(len(data0), d)

	store := cas.For(blobstore.NewMem())
	start := time.Now()
	if _, err := store.Put("drive/v0", data0, 0, hints, reg); err != nil {
		return err
	}
	out["cas.put_mb_s"] = mbPerSec(len(data0), time.Since(start))
	start = time.Now()
	if _, err := store.Put("drive/v0-again", data0, 0, hints, reg); err != nil {
		return err
	}
	out["cas.put_dup_mb_s"] = mbPerSec(len(data0), time.Since(start))
	res, err := store.Put("drive/v1", data1, 0, hints, reg)
	if err != nil {
		return err
	}
	out["cas.dedup_hit_ratio"] = float64(res.DedupBytes) / float64(len(data1))

	var got []byte
	d, err = best(3, func() (err error) {
		got, err = store.Get("drive/v0")
		return err
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(got, data0) {
		return fmt.Errorf("cas.Get returned wrong bytes")
	}
	out["cas.get_mb_s"] = mbPerSec(len(data0), d)
	d, err = medianLatency(rangeReads, func(i int) error {
		_, err := store.GetRange("drive/v0", rangeOf(i), int64(per))
		return err
	})
	out["cas.getrange_us"] = microseconds(d)
	return err
}

// driveCodec encodes and decodes data model by model, the way CAS chunk
// bodies are. A codec the registry no longer lists reports zeros.
func driveCodec(id string, data []byte, per int, out map[string]float64) error {
	prefix := "codec." + id
	out[prefix+"_encode_mb_s"], out[prefix+"_decode_mb_s"], out[prefix+"_ratio"] = 0, 0, 0
	c, err := codec.Lookup(id)
	if err != nil {
		return nil
	}
	var encoded [][]byte
	var encodedBytes int
	d, err := best(2, func() error {
		encoded, encodedBytes = encoded[:0], 0
		for off := 0; off+per <= len(data); off += per {
			enc, err := c.Encode(nil, data[off:off+per])
			if err != nil {
				return err
			}
			encoded = append(encoded, enc)
			encodedBytes += len(enc)
		}
		return nil
	})
	if err != nil {
		return err
	}
	raw := len(encoded) * per
	out[prefix+"_encode_mb_s"] = mbPerSec(raw, d)
	out[prefix+"_ratio"] = float64(encodedBytes) / float64(raw)
	d, err = best(2, func() error {
		for i, enc := range encoded {
			dec, err := c.Decode(enc, per)
			if err != nil {
				return err
			}
			if !bytes.Equal(dec, data[i*per:(i+1)*per]) {
				return fmt.Errorf("%s decoded wrong bytes", id)
			}
		}
		return nil
	})
	out[prefix+"_decode_mb_s"] = mbPerSec(raw, d)
	return err
}

// driveCache fills a chunk cache the size of the serving one with
// model-sized values that fit it, then reads each back.
func driveCache(per int, out map[string]float64) {
	c := cache.New(cache.Config{MaxBytes: chunkCacheBytes, Registry: obs.New()})
	val := make([]byte, per)
	keys := make([]string, cacheKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	start := time.Now()
	for _, k := range keys {
		c.Put(k, val, int64(per), 1)
	}
	out["cache.put_ns"] = float64(time.Since(start).Nanoseconds()) / cacheKeys
	const rounds = 20
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			c.Get(k)
		}
	}
	out["cache.get_hit_ns"] = float64(time.Since(start).Nanoseconds()) / (rounds * cacheKeys)
}

// driveBlobstore measures the checksumming blob store over a memory
// backend, so the numbers are the CRC and copy cost alone.
func driveBlobstore(data []byte, per int, rangeOf func(int) int64, out map[string]float64) error {
	store := blobstore.NewMem()
	d, err := best(3, func() error { return store.Put("drive/params.bin", data) })
	if err != nil {
		return err
	}
	out["blobstore.put_mb_s"] = mbPerSec(len(data), d)
	d, err = best(3, func() error {
		_, err := store.Get("drive/params.bin")
		return err
	})
	if err != nil {
		return err
	}
	out["blobstore.get_mb_s"] = mbPerSec(len(data), d)
	d, err = medianLatency(rangeReads, func(i int) error {
		_, err := store.GetRange("drive/params.bin", rangeOf(i), int64(per))
		return err
	})
	out["blobstore.getrange_us"] = microseconds(d)
	return err
}

// driveDocstore inserts and reads documents shaped like the per-model
// hash lists Update writes.
func driveDocstore(out map[string]float64) error {
	type hashDoc struct {
		SetID  string   `json:"set_id"`
		Hashes []string `json:"hashes"`
	}
	doc := hashDoc{SetID: "drive", Hashes: make([]string, 8)}
	for i := range doc.Hashes {
		doc.Hashes[i] = fmt.Sprintf("%064x", i)
	}
	store := docstore.NewMem()
	d, err := medianLatency(docCount, func(i int) error {
		return store.Insert("drive", fmt.Sprintf("doc-%d", i), doc)
	})
	if err != nil {
		return err
	}
	out["docstore.insert_us"] = microseconds(d)
	d, err = medianLatency(docCount, func(i int) error {
		var got hashDoc
		return store.Get("drive", fmt.Sprintf("doc-%d", i), &got)
	})
	out["docstore.get_us"] = microseconds(d)
	return err
}

// driveDir measures the directory backend the workloads store into, with
// one blob of the drive's size.
func driveDir(rc *runConfig, data []byte, out map[string]float64) error {
	dir, err := os.MkdirTemp(rc.workdir, "drive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b, err := backend.NewDir(dir)
	if err != nil {
		return err
	}
	n := 0
	d, err := best(3, func() error {
		n++
		return b.Put(fmt.Sprintf("drive/blob-%d", n), data)
	})
	if err != nil {
		return err
	}
	out["backend.dir_put_mb_s"] = mbPerSec(len(data), d)
	d, err = best(3, func() error {
		_, err := b.Get("drive/blob-1")
		return err
	})
	out["backend.dir_get_mb_s"] = mbPerSec(len(data), d)
	return err
}

// driveMMlib measures the MMlib-base reference row (every model saved on
// its own) on the first models of U1, so the paper's Figures 3 to 5 keep
// their fourth approach.
func driveMMlib(ln *lineage, rc *runConfig, models int, out map[string]float64) error {
	v0 := ln.versions[0]
	set := &core.ModelSet{Arch: v0.Arch, Models: v0.Models[:min(models, v0.Len())]}
	reps := 3
	if set.Len() > driveModels {
		reps = 1
	}
	var save, recover []float64
	for i := 0; i < reps; i++ {
		stores := openStores(ln.reg, nil, localNode)
		defer stores.remove()
		a := core.NewMMlibBase(stores.Stores, core.WithConcurrency(1), core.WithMetrics(obs.New()))
		start := time.Now()
		res, err := a.SaveContext(context.Background(), core.SaveRequest{Set: set, Train: ln.train})
		if err != nil {
			return err
		}
		save = append(save, time.Since(start).Seconds()*1e3)
		start = time.Now()
		got, err := a.RecoverContext(context.Background(), res.SetID)
		if err != nil {
			return err
		}
		recover = append(recover, time.Since(start).Seconds()*1e3)
		if !got.Equal(set) {
			return fmt.Errorf("MMlib-base recovered wrong bytes")
		}
		var check collector
		physical := stores.physical(&check, "the MMlib-base store")
		if check.failed > 0 {
			return fmt.Errorf("MMlib-base storage accounting disagrees with core.Du")
		}
		out["core.mmlib_stored_ratio"] = float64(physical) / float64(set.Len()*v0.Arch.ParamBytes())
	}
	out["core.mmlib_tts_u1_ms"] = median(save)
	out["core.mmlib_ttr_u1_ms"] = median(recover)
	return nil
}
