package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/layout_golden.txt from the current code")

// goldenEnvDependent names the document collections whose bytes embed
// env.Capture() (hostname, CPU count, Go version): their keys are
// pinned, their sizes and hashes are not.
var goldenEnvDependent = []string{"mmlib_env/", "provenance_train/"}

// TestGoldenLayout pins the on-disk layout of all four approaches: a
// seeded U1→U3-1→U3-2 chain saved into memory backends must produce
// exactly the committed list of backend keys (documents, blobs,
// checksum manifests, CAS chunks and recipes), each with its
// size and SHA-256. Refactors of the save paths must leave it
// untouched; regenerate with -update-golden only when a format change
// is intended.
func TestGoldenLayout(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"dedup", []Option{WithDedup()}},
		{"zlib", []Option{WithCodec("zlib")}},
	}
	approaches := []struct {
		name string
		open func(Stores, ...Option) Approach
	}{
		{"baseline", func(st Stores, o ...Option) Approach { return NewBaseline(st, o...) }},
		{"update", func(st Stores, o ...Option) Approach { return NewUpdate(st, o...) }},
		{"provenance", func(st Stores, o ...Option) Approach { return NewProvenance(st, o...) }},
		{"mmlib", func(st Stores, o ...Option) Approach { return NewMMlibBase(st, o...) }},
	}

	var got bytes.Buffer
	for _, ap := range approaches {
		for _, v := range variants {
			if v.name == "zlib" && ap.name != "update" {
				continue // only Update's diff blobs change with a codec on plain saves
			}
			docs, blobs := backend.NewMem(), backend.NewMem()
			st := Stores{
				Docs:     docstore.New(docs, latency.CostModel{}, nil),
				Blobs:    blobstore.New(blobs, latency.CostModel{}, nil),
				Datasets: dataset.NewRegistry(),
			}
			a := ap.open(st, append([]Option{WithConcurrency(1)}, v.opts...)...)

			ids, truths := goldenChain(t, a, st)
			if rec := mustRecover(t, a, ids[2]); !rec.Equal(truths[2]) {
				t.Fatalf("%s/%s: U3-2 does not recover bit-identically", ap.name, v.name)
			}

			fmt.Fprintf(&got, "== %s %s ==\n", ap.name, v.name)
			dumpBackend(t, &got, "docs", docs)
			dumpBackend(t, &got, "blobs", blobs)
		}
	}

	path := filepath.Join("testdata", "layout_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("on-disk layout diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// dumpBackend writes one line per raw backend key: store, key, size,
// SHA-256 ("-" for environment-dependent documents).
func dumpBackend(t *testing.T, w *bytes.Buffer, store string, b backend.Backend) {
	t.Helper()
	keys, err := b.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		data, err := b.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		envDependent := false
		for _, p := range goldenEnvDependent {
			envDependent = envDependent || strings.HasPrefix(k, p)
		}
		if envDependent {
			fmt.Fprintf(w, "%s %s - -\n", store, k)
			continue
		}
		fmt.Fprintf(w, "%s %s %d %x\n", store, k, len(data), sha256.Sum256(data))
	}
}
