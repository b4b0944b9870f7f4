package ggpdes

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ggpdes/internal/checkpoint"
)

// ckptCfg returns a small checkpointed configuration: every 2 GVT
// rounds the run quiesces, snapshots to dir, and continues from the
// serialized form.
func ckptCfg(model Model, g GVT, dir string) Config {
	return Config{
		Model:                model,
		Threads:              4,
		System:               GGPDES,
		GVT:                  g,
		EndTime:              40,
		Machine:              SmallMachine(),
		GVTFrequency:         10,
		ZeroCounterThreshold: 60,
		Checkpoint:           &CheckpointOptions{Every: 2, Dir: dir},
	}
}

func listCheckpoints(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	return paths
}

// The acceptance property: killing a run at ANY checkpoint boundary and
// resuming from the snapshot produces Results identical to the run
// having finished uninterrupted — for every model and GVT algorithm.
// (A process killed between boundaries restarts from the latest
// snapshot and replays the partial segment, which is the same
// trajectory: segments always start from serialized state.)
func TestCheckpointResumeMatrix(t *testing.T) {
	models := []Model{
		PHOLD{LPsPerThread: 4, Imbalance: 2},
		Epidemics{LPsPerThread: 8, LockdownGroups: 4, ContactRate: 3, TransmissionProb: 0.5},
		Traffic{LPsPerThread: 4, CenterStartEvents: 6},
	}
	for _, model := range models {
		for _, g := range []GVT{Barrier, WaitFree} {
			name := model.Name() + "/" + g.String()
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				full, err := Run(ckptCfg(model, g, dir))
				if err != nil {
					t.Fatal(err)
				}
				if full.FinalGVT < 40 {
					t.Fatalf("incomplete run: GVT %v", full.FinalGVT)
				}
				paths := listCheckpoints(t, dir)
				if len(paths) < 2 {
					t.Fatalf("want >= 2 checkpoints, got %d (rounds %d)", len(paths), full.GVTRounds)
				}
				for _, path := range paths {
					resumed, err := Resume(path)
					if err != nil {
						t.Fatalf("resume %s: %v", filepath.Base(path), err)
					}
					if !reflect.DeepEqual(full, resumed) {
						t.Errorf("resume from %s diverged:\nfull:    %+v\nresumed: %+v",
							filepath.Base(path), full, resumed)
					}
				}
			})
		}
	}
}

// Two checkpointed runs of the same config must write byte-identical
// snapshot files, and a resumed run re-writes the later checkpoints
// with the exact bytes of the original.
func TestCheckpointBytesDeterministic(t *testing.T) {
	model := PHOLD{LPsPerThread: 4, Imbalance: 2}
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := Run(ckptCfg(model, WaitFree, dirA)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ckptCfg(model, WaitFree, dirB)); err != nil {
		t.Fatal(err)
	}
	pathsA := listCheckpoints(t, dirA)
	pathsB := listCheckpoints(t, dirB)
	if len(pathsA) != len(pathsB) {
		t.Fatalf("checkpoint counts differ: %d vs %d", len(pathsA), len(pathsB))
	}
	read := func(p string) []byte {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i := range pathsA {
		// Snapshots embed Config including Checkpoint.Dir, which differs
		// between the two runs — compare everything but the raw config.
		sa, err := checkpoint.Read(pathsA[i])
		if err != nil {
			t.Fatal(err)
		}
		sb, err := checkpoint.Read(pathsB[i])
		if err != nil {
			t.Fatal(err)
		}
		sa.Config, sb.Config = nil, nil
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("checkpoint %d differs between identical runs", i)
		}
	}
	// Resuming from the first checkpoint must re-write the later ones
	// byte-for-byte (same dir, so the embedded config matches too).
	orig := make(map[string][]byte)
	for _, p := range pathsA[1:] {
		orig[p] = read(p)
	}
	if _, err := Resume(pathsA[0]); err != nil {
		t.Fatal(err)
	}
	for p, want := range orig {
		if got := read(p); !bytes.Equal(got, want) {
			t.Fatalf("resume re-wrote %s with different bytes", filepath.Base(p))
		}
	}
}

// Checkpointing is part of the trajectory (quiescing perturbs
// speculation), so Every enters the cache key; Dir does not.
func TestCheckpointCacheKey(t *testing.T) {
	base := quickCfg()
	plain, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	ck := base
	ck.Checkpoint = &CheckpointOptions{Every: 2, Dir: "/tmp/x"}
	a, err := ck.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if a == plain {
		t.Fatal("Checkpoint.Every did not change the key")
	}
	ck.Checkpoint = &CheckpointOptions{Every: 2, Dir: "/tmp/y"}
	b, err := ck.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Checkpoint.Dir changed the key")
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, Barrier, dir)); err != nil {
		t.Fatal(err)
	}
	path := listCheckpoints(t, dir)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the payload: the CRC must catch it.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCheckpointCorrupt", err)
	}
	// Truncation must be caught too.
	if err := os.WriteFile(bad, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("truncated snapshot: got %v, want ErrCheckpointCorrupt", err)
	}
}

// A snapshot whose checksum is intact but whose engine state cannot be
// restored is corrupt too: Resume must say so with a typed error, not
// fail inside a simulation thread.
func TestResumeRejectsCorruptEngineState(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, Barrier, dir)); err != nil {
		t.Fatal(err)
	}
	path := listCheckpoints(t, dir)[0]
	// firstPending returns the first peer holding a pending record.
	firstPending := func(s *checkpoint.Snapshot) int {
		for i, recs := range s.Engine.Pending {
			if len(recs) > 0 {
				return i
			}
		}
		t.Fatal("snapshot holds no pending events")
		return -1
	}
	cases := []struct {
		name   string
		mutate func(s *checkpoint.Snapshot)
	}{
		{"dst-out-of-range", func(s *checkpoint.Snapshot) {
			s.Engine.Pending[firstPending(s)][0].Dst = 1 << 20
		}},
		{"negative-src", func(s *checkpoint.Snapshot) {
			s.Engine.Pending[firstPending(s)][0].Src = -1
		}},
		{"dst-on-wrong-peer", func(s *checkpoint.Snapshot) {
			i := firstPending(s)
			other := (i + 1) % len(s.Engine.Pending)
			s.Engine.Pending[other] = append(s.Engine.Pending[other], s.Engine.Pending[i][0])
		}},
		{"below-gvt", func(s *checkpoint.Snapshot) {
			s.Engine.Pending[firstPending(s)][0].Ts = s.Engine.GVT - 1
		}},
		{"lp-count", func(s *checkpoint.Snapshot) {
			s.Engine.LPs = s.Engine.LPs[1:]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := checkpoint.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(snap)
			data, err := checkpoint.Encode(snap)
			if err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Resume(bad); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
			}
		})
	}
}

// Without a directory, checkpointing still segments the run (and stays
// deterministic) — nothing is persisted.
func TestCheckpointWithoutDir(t *testing.T) {
	cfg := ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, WaitFree, "")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("dir-less checkpointed runs diverged")
	}
}

// Resume re-attaches observability that snapshots cannot carry.
func TestResumeWithProgress(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, Barrier, dir)); err != nil {
		t.Fatal(err)
	}
	var samples int
	_, err := ResumeContext(t.Context(), listCheckpoints(t, dir)[0], &ResumeOptions{
		Progress: &ProgressOptions{Every: 0.25, Func: func(ProgressInfo) { samples++ }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no progress samples during resumed run")
	}
}
