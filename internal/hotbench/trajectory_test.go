package hotbench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadTrajectoryMissingFile(t *testing.T) {
	tr, err := LoadTrajectory(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.SchemaVersion != TrajectorySchemaVersion || len(tr.Entries) != 0 {
		t.Fatalf("missing file should load as empty current-version trajectory, got %+v", tr)
	}
}

func TestTrajectoryAppendSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	tr, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	hot := []byte(`{"rows":[{"bench":"b","ns_op":1}]}`)
	util := []byte(`{"n":100}`)
	if err := tr.Append(hot, nil, util, []byte(`{"summary":{}}`)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(nil, []byte(`{"rows":[]}`), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(back.Entries))
	}
	e1, e2 := back.Entries[0], back.Entries[1]
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Errorf("seq numbering = %d, %d, want 1, 2", e1.Seq, e2.Seq)
	}
	// Save re-indents the embedded documents; the structure must survive
	// untouched even though the whitespace does not.
	sameJSON := func(a, b []byte) bool {
		var av, bv any
		if json.Unmarshal(a, &av) != nil || json.Unmarshal(b, &bv) != nil {
			return false
		}
		ac, _ := json.Marshal(av)
		bc, _ := json.Marshal(bv)
		return string(ac) == string(bc)
	}
	if !sameJSON(e1.Hotpath, hot) || !sameJSON(e1.MachineUtil, util) {
		t.Errorf("snapshots changed structurally: %s / %s", e1.Hotpath, e1.MachineUtil)
	}
	if !sameJSON(e1.DepPrecision, []byte(`{"summary":{}}`)) {
		t.Errorf("dep-precision snapshot changed structurally: %s", e1.DepPrecision)
	}
	if e1.ExactGap != nil {
		t.Error("absent snapshot should stay nil")
	}
	if e2.Hotpath != nil || e2.ExactGap == nil {
		t.Errorf("entry 2 = %+v", e2)
	}
	// A third append onto the reloaded document keeps numbering.
	if err := back.Append(hot, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if back.Entries[2].Seq != 3 {
		t.Errorf("seq after reload = %d, want 3", back.Entries[2].Seq)
	}
}

func TestTrajectoryRejectsInvalidSnapshot(t *testing.T) {
	tr := &Trajectory{SchemaVersion: TrajectorySchemaVersion}
	if err := tr.Append([]byte("{not json"), nil, nil, nil); err == nil {
		t.Fatal("invalid JSON snapshot accepted")
	}
	if len(tr.Entries) != 0 {
		t.Fatal("failed append still added an entry")
	}
}

func TestTrajectoryFutureVersionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.json")
	doc, _ := json.Marshal(Trajectory{SchemaVersion: TrajectorySchemaVersion + 1})
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadTrajectory(path)
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future schema version: err = %v, want newer-version error", err)
	}
}

// TestTrajectoryRefusesCopiedHotpath appends a hotpath snapshot identical
// to the previous entry's (as a saved and reloaded trajectory holds it,
// re-indented): the append must fail and leave the trajectory unchanged.
// A re-measured snapshot, or an entry without one, is accepted.
func TestTrajectoryRefusesCopiedHotpath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	tr, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	hot := []byte(`{"rows": [{"bench": "b", "ns_op": 1}]}`)
	if err := tr.Append(hot, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	err = back.Append([]byte(`{"rows":[{"bench":"b","ns_op":1}]}`), []byte(`{"rows":[]}`), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "byte-identical to entry 1") {
		t.Fatalf("copied hotpath: err = %v, want a byte-identical refusal naming entry 1", err)
	}
	if len(back.Entries) != 1 {
		t.Fatalf("refused append still added an entry: %d entries", len(back.Entries))
	}
	if err := back.Append([]byte(`{"rows":[{"bench":"b","ns_op":2}]}`), nil, nil, nil); err != nil {
		t.Fatalf("re-measured hotpath refused: %v", err)
	}
	if err := back.Append(nil, []byte(`{"rows":[]}`), nil, nil); err != nil {
		t.Fatalf("entry without a hotpath refused: %v", err)
	}
}
