package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadManifest drives arbitrary bytes through the manifest reader
// runsdiff and obsprofile use: it must never panic, input that is not JSON
// must be an error, and an accepted manifest must re-encode stably — written
// back and read again, it writes back the same bytes. The checked-in corpus
// adds a manifest from a build whose header still carried `scale` (it must
// keep loading) and a few malformed documents.
func FuzzReadManifest(f *testing.F) {
	seed, err := json.Marshal(testManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"tool": "reproduce", "seed": 42, "scenario": "default", "scenario_hash": "d1"}`))
	f.Add([]byte(`{"tool": "reproduce", "seed": "42"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(path)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted invalid JSON %q", data)
		}
		if m.Tool == "" {
			t.Fatal("accepted a manifest without a tool")
		}
		once := filepath.Join(dir, "once.json")
		if err := m.WriteFile(once); err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		again, err := ReadManifest(once)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		twice := filepath.Join(dir, "twice.json")
		if err := again.WriteFile(twice); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(once)
		b, _ := os.ReadFile(twice)
		if !bytes.Equal(a, b) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", a, b)
		}
	})
}

// TestReadManifestFromOlderBuild: a manifest written before the scenario
// fields replaced `scale` still loads — runsdiff can compare it against a
// current run, and reports the missing scenario as drift.
func TestReadManifestFromOlderBuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"tool": "reproduce", "seed": 42, "scale": "tiny"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatalf("older manifest rejected: %v", err)
	}
	if m.Tool != "reproduce" || m.Seed != 42 || m.Scenario != "" {
		t.Fatalf("older manifest read as %+v", m)
	}
}
