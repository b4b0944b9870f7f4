// Package checkpoint defines the versioned on-disk snapshot format for
// deterministic run checkpoint/restore. A snapshot is written at a GVT
// round boundary after the engine has been quiesced onto its committed
// cut (see internal/tw's checkpoint support); restoring it and running
// the remaining segments reproduces the uninterrupted run's Results
// byte for byte.
//
// The file layout is a JSON envelope {magic, version, crc32, data}
// where data is the Snapshot JSON and the CRC covers its exact bytes.
// JSON is deliberate: floats round-trip exactly (shortest-form
// encoding), uint64s are full-precision decimals, and a corrupt or
// truncated file fails loudly. Every decode error is wrapped in
// ErrCorrupt so callers can classify it.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"ggpdes/internal/core"
	"ggpdes/internal/machine"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

const (
	// Magic identifies a ggpdes checkpoint file.
	Magic = "ggpdes-checkpoint"
	// Version is the snapshot format revision; readers reject others.
	Version = 1
)

// ErrCorrupt reports an unreadable, truncated, checksum-mismatched or
// version-incompatible snapshot. The public API re-exports it as
// ggpdes.ErrCheckpointCorrupt.
var ErrCorrupt = errors.New("checkpoint: corrupt or incompatible snapshot")

// Snapshot is everything a fresh process needs to continue a run from
// a GVT round boundary.
type Snapshot struct {
	// Config is the run configuration in its canonical JSON wire form.
	// It is kept raw here — the root package owns the Config codec —
	// which also avoids an import cycle.
	Config json.RawMessage `json:"config"`
	// CacheKey fingerprints Config; restore verifies the decoded config
	// hashes back to it, so a lossy codec cannot silently fork the
	// trajectory.
	CacheKey string `json:"cache_key"`
	// Segments counts checkpoints taken so far (this file is number
	// Segments); Rounds is cumulative GVT publications.
	Segments int    `json:"segments"`
	Rounds   uint64 `json:"rounds"`
	// MachineTicks is the cumulative machine tick count — the next
	// segment's StartTick, keeping wall-clock metrics cumulative.
	MachineTicks uint64 `json:"machine_ticks"`
	// MachineStats and SchedStats accumulate per-segment scheduler
	// counters; TotalCycles accumulates consumed CPU cycles.
	MachineStats machine.Stats        `json:"machine_stats"`
	SchedStats   core.SchedulingStats `json:"sched_stats"`
	TotalCycles  uint64               `json:"total_cycles"`
	// GVTFrequency is the (possibly adaptively tuned) round frequency
	// the next segment starts from; 0 means the configured value.
	GVTFrequency int `json:"gvt_frequency"`
	// Engine is the quiesced Time Warp state.
	Engine *tw.EngineState `json:"engine"`
	// Metrics is the raw telemetry registry export.
	Metrics telemetry.MetricsState `json:"metrics"`
}

// envelope is the on-disk wrapper around a Snapshot.
type envelope struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	CRC     uint32          `json:"crc32"`
	Data    json.RawMessage `json:"data"`
}

// Encode serializes a snapshot into its on-disk byte form.
func Encode(s *Snapshot) ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	env := envelope{
		Magic:   Magic,
		Version: Version,
		CRC:     crc32.ChecksumIEEE(data),
		Data:    data,
	}
	out, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding envelope: %w", err)
	}
	return out, nil
}

// Decode parses and verifies Encode's output.
func Decode(data []byte) (*Snapshot, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Magic != Magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, env.Magic, Magic)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: format version %d, reader supports %d", ErrCorrupt, env.Version, Version)
	}
	if got := crc32.ChecksumIEEE(env.Data); got != env.CRC {
		return nil, fmt.Errorf("%w: crc32 %08x, want %08x", ErrCorrupt, got, env.CRC)
	}
	var s Snapshot
	if err := json.Unmarshal(env.Data, &s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if s.Engine == nil {
		return nil, fmt.Errorf("%w: snapshot has no engine state", ErrCorrupt)
	}
	return &s, nil
}

// FileName returns the canonical file name of checkpoint n; zero
// padding keeps lexicographic and numeric order identical, which is
// what Latest relies on.
func FileName(n int) string { return fmt.Sprintf("ckpt-%08d.json", n) }

// Write atomically persists a snapshot as file number s.Segments under
// dir, creating the directory as needed.
func Write(dir string, s *Snapshot) (string, error) {
	data, err := Encode(s)
	if err != nil {
		return "", err
	}
	return WriteBytes(dir, s.Segments, data)
}

// WriteBytes atomically persists pre-encoded snapshot bytes as
// checkpoint number n under dir. Several writers may share dir (fleet
// replicas failing over onto one keyed directory), so each writes its
// own uniquely named temp file and renames it into place; the last
// rename wins, and every writer's file is complete.
func WriteBytes(dir string, n int, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	path := filepath.Join(dir, FileName(n))
	f, err := os.CreateTemp(dir, FileName(n)+".*.tmp")
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	return path, nil
}

// Read loads and verifies the snapshot at path.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(data)
}

// Latest returns the path of the highest-numbered checkpoint file in
// dir. It returns os.ErrNotExist (wrapped) when the directory holds no
// checkpoints or does not exist.
func Latest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && len(name) == len(FileName(0)) &&
			name[:5] == "ckpt-" && filepath.Ext(name) == ".json" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("checkpoint: no checkpoints in %s: %w", dir, os.ErrNotExist)
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1]), nil
}
