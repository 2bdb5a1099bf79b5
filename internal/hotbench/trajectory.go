package hotbench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// TrajectorySchemaVersion is the trajectory document version this code
// reads and writes. Loading a document with a newer version fails instead
// of silently dropping fields the newer writer considered meaningful.
const TrajectorySchemaVersion = 1

// TrajectorySnapshot is one appended measurement point: the benchmark and
// audit snapshots current at append time, carried verbatim so the
// trajectory never re-interprets (or breaks on) an older snapshot shape.
type TrajectorySnapshot struct {
	// Seq numbers entries in append order, from 1.
	Seq int `json:"seq"`
	// Hotpath, ExactGap, MachineUtil and DepPrecision are the raw snapshot
	// documents (BENCH_hotpath.json, BENCH_exact_gap.json,
	// BENCH_machine_util.json, BENCH_dep_precision.json); absent when the
	// snapshot did not exist at append time.
	Hotpath      json.RawMessage `json:"hotpath,omitempty"`
	ExactGap     json.RawMessage `json:"exact_gap,omitempty"`
	MachineUtil  json.RawMessage `json:"machine_util,omitempty"`
	DepPrecision json.RawMessage `json:"dep_precision,omitempty"`
}

// Trajectory is the consolidated benchmark-trajectory artifact: an
// append-only sequence of snapshot points, so a CI run (or a developer)
// can diff performance and utilization across PRs without spelunking git
// history for each snapshot file.
type Trajectory struct {
	SchemaVersion int                  `json:"schema_version"`
	Entries       []TrajectorySnapshot `json:"entries"`
}

// LoadTrajectory reads a trajectory document; a missing file is an empty
// current-version trajectory, a future schema version is an error.
func LoadTrajectory(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &Trajectory{SchemaVersion: TrajectorySchemaVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("trajectory %s: %w", path, err)
	}
	if t.SchemaVersion > TrajectorySchemaVersion {
		return nil, fmt.Errorf("trajectory %s: schema version %d is newer than this build understands (%d)",
			path, t.SchemaVersion, TrajectorySchemaVersion)
	}
	t.SchemaVersion = TrajectorySchemaVersion
	return &t, nil
}

// Append adds one snapshot point built from whichever documents are
// non-nil, numbering it after the last entry. Documents must be valid JSON
// (they are embedded verbatim). A hotpath document identical to the last
// entry's, up to JSON whitespace, is refused: benchmark numbers are never
// byte-identical across two measurements, so it was copied forward rather
// than measured.
func (t *Trajectory) Append(hotpath, exactGap, machineUtil, depPrecision []byte) error {
	if n := len(t.Entries); n > 0 && hotpath != nil && t.Entries[n-1].Hotpath != nil &&
		sameCompact(hotpath, t.Entries[n-1].Hotpath) {
		return fmt.Errorf("trajectory: hotpath snapshot is byte-identical to entry %d's; "+
			"re-measure it (go run ./cmd/report -hotpath-json BENCH_hotpath.json -hotpath-only) instead of copying it forward",
			t.Entries[n-1].Seq)
	}
	snap := TrajectorySnapshot{Seq: len(t.Entries) + 1}
	for _, d := range []struct {
		name string
		raw  []byte
		dst  *json.RawMessage
	}{
		{"hotpath", hotpath, &snap.Hotpath},
		{"exact_gap", exactGap, &snap.ExactGap},
		{"machine_util", machineUtil, &snap.MachineUtil},
		{"dep_precision", depPrecision, &snap.DepPrecision},
	} {
		if d.raw == nil {
			continue
		}
		if !json.Valid(d.raw) {
			return fmt.Errorf("trajectory: %s snapshot is not valid JSON", d.name)
		}
		*d.dst = json.RawMessage(d.raw)
	}
	t.Entries = append(t.Entries, snap)
	return nil
}

// sameCompact reports whether two JSON documents are byte-identical once
// insignificant whitespace is removed (Save re-indents embedded documents).
func sameCompact(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// Save writes the trajectory as indented JSON.
func (t *Trajectory) Save(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
