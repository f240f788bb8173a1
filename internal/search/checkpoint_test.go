package search

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, StopAfter: 2}); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if c.NextGeneration != 2 {
		t.Errorf("NextGeneration = %d, want 2", c.NextGeneration)
	}
	if c.SpecFingerprint != spec.Fingerprint() {
		t.Errorf("fingerprint %q, want %q", c.SpecFingerprint, spec.Fingerprint())
	}
	data, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, c2) {
		t.Error("encode/decode round trip altered the checkpoint")
	}
}

func TestDecodeCheckpointRejectsMalformed(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, StopAfter: 1}); err != nil {
		t.Fatal(err)
	}
	good, err := LoadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Checkpoint){
		"magic":         func(c *Checkpoint) { c.Magic = "other" },
		"version":       func(c *Checkpoint) { c.Version = 99 },
		"next gen":      func(c *Checkpoint) { c.NextGeneration = 0 },
		"evals":         func(c *Checkpoint) { c.Evaluations = -1 },
		"no islands":    func(c *Checkpoint) { c.Islands = nil },
		"empty pop":     func(c *Checkpoint) { c.Islands[0].Population = nil },
		"short genome":  func(c *Checkpoint) { c.Islands[0].Population[0].Genome = []float64{1} },
		"archive seq":   func(c *Checkpoint) { c.ArchiveSeq = -1 },
		"history label": func(c *Checkpoint) { c.Islands[0].History[0].Generation = 7 },
	}
	for name, mutate := range mutations {
		data, err := EncodeCheckpoint(good)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		mutate(c)
		if _, err := EncodeCheckpoint(c); err == nil {
			t.Errorf("%s: EncodeCheckpoint accepted a corrupt checkpoint", name)
		}
	}

	for name, data := range map[string][]byte{
		"not json":   []byte("not a checkpoint"),
		"empty":      nil,
		"wrong type": []byte(`{"magic": 4}`),
		"json null":  []byte("null"),
	} {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: DecodeCheckpoint accepted %q", name, data)
		}
	}
}

// FuzzDecodeCheckpoint asserts the checkpoint decoder never panics:
// arbitrary input either parses into a structurally valid checkpoint or
// returns an error. Valid checkpoints must re-encode.
func FuzzDecodeCheckpoint(f *testing.F) {
	spec := testSpec()
	ckpt := filepath.Join(f.TempDir(), "search.ckpt")
	if _, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, StopAfter: 1}); err != nil {
		f.Fatal(err)
	}
	good, err := LoadCheckpointFile(ckpt)
	if err != nil {
		f.Fatal(err)
	}
	data, err := EncodeCheckpoint(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"magic":"acasxval-search-checkpoint","version":1}`))
	f.Add([]byte("null"))
	f.Add([]byte("{}"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if _, err := EncodeCheckpoint(c); err != nil {
			t.Errorf("decoded checkpoint failed to re-encode: %v", err)
		}
	})
}
