package inet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// canonBytes renders the world as its OFNW snapshot under cfg.
func canonBytes(t *testing.T, w *World, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteWorld(&buf, w, cfg, ""); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotBinaryRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"legacy-tiny", TinyConfig(42)},
		{"sharded-tiny", func() Config { c := TinyConfig(42); c.Sharded = true; return c }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := Generate(tc.cfg)
			// Post-generation state must survive: content AS + host cursors.
			if _, err := w.AddContentAS("hg-snap", nil, 4); err != nil {
				t.Fatal(err)
			}
			isp := w.AccessISPs()[0]
			for i := 0; i < 3; i++ {
				if _, err := w.AllocHostIn(isp.ASN); err != nil {
					t.Fatal(err)
				}
			}

			path := filepath.Join(t.TempDir(), "world.ofnw")
			if err := WriteWorldFile(path, w, tc.cfg, "hash-abc"); err != nil {
				t.Fatal(err)
			}
			r, err := ReadWorldFile(path, tc.cfg, "hash-abc")
			if err != nil {
				t.Fatal(err)
			}
			want, got := canonBytes(t, w, tc.cfg), canonBytes(t, r, tc.cfg)
			if sha256.Sum256(want) != sha256.Sum256(got) {
				t.Fatal("canonical render differs after binary round trip")
			}
			// The prefix ownership index is rebuilt, not stored.
			for _, isp := range w.ISPList() {
				for _, p := range isp.Prefixes {
					if owner, ok := r.OwnerOf(p.First()); !ok || owner != isp.ASN {
						t.Fatalf("restored OwnerOf(%s) = %d,%v, want %d", p, owner, ok, isp.ASN)
					}
				}
			}
			// Restored pools keep allocating without collision.
			a1, err := w.AllocHostIn(isp.ASN)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := r.AllocHostIn(isp.ASN)
			if err != nil {
				t.Fatal(err)
			}
			if a1 != a2 {
				t.Fatalf("restored host cursor diverged: %v vs %v", a1, a2)
			}
			c1, err := w.AddContentAS("hg-next", nil, 4)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := r.AddContentAS("hg-next", nil, 4)
			if err != nil {
				t.Fatal(err)
			}
			if p1, p2 := w.ISPs[c1].Prefixes[0], r.ISPs[c2].Prefixes[0]; p1 != p2 {
				t.Fatalf("restored content pool diverged: %v vs %v", p1, p2)
			}
		})
	}
}

func TestSnapshotShardCountIrrelevantToLoad(t *testing.T) {
	// Shards/GenWorkers are parallelism knobs, not world parameters: a
	// snapshot written under one sharding must load under another.
	cfg := TinyConfig(42)
	cfg.Sharded = true
	cfg.Shards, cfg.GenWorkers = 16, 4
	w := Generate(cfg)
	path := filepath.Join(t.TempDir(), "world.ofnw")
	if err := WriteWorldFile(path, w, cfg, ""); err != nil {
		t.Fatal(err)
	}
	cfg.Shards, cfg.GenWorkers = 3, 1
	if _, err := ReadWorldFile(path, cfg, ""); err != nil {
		t.Fatalf("load with different shard count rejected: %v", err)
	}
}

func TestSnapshotRejection(t *testing.T) {
	cfg := TinyConfig(42)
	w := Generate(cfg)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.ofnw")
	if err := WriteWorldFile(path, w, cfg, "hash-abc"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{3, 10, len(data) / 2, len(data) - 1} {
			_, err := ReadWorld(bytes.NewReader(data[:cut]), cfg, "hash-abc")
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("truncated at %d: got %v, want ErrSnapshotCorrupt", cut, err)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte("NOPE"), data[4:]...)
		if _, err := ReadWorld(bytes.NewReader(bad), cfg, "hash-abc"); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint32(bad[4:8], 99)
		if _, err := ReadWorld(bytes.NewReader(bad), cfg, "hash-abc"); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("got %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("flipped-count", func(t *testing.T) {
		// Without a scenario hash, byte 80 is the high byte of the first
		// ISP's name length: flipping it misaligns the reader, so later
		// counts are garbage. Before count hints were clamped, bit 2 made
		// the reader preallocate ~71 GB of metros and the process died with
		// "runtime: out of memory".
		var buf bytes.Buffer
		if err := WriteWorld(&buf, w, cfg, ""); err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(buf.Bytes())
			bad[80] ^= 1 << bit
			if _, err := ReadWorld(bytes.NewReader(bad), cfg, ""); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("bit %d flipped: got %v, want ErrSnapshotCorrupt", bit, err)
			}
		}
	})
	t.Run("flipped-bytes", func(t *testing.T) {
		// No corrupt byte may crash the reader: each flip decodes to a
		// world or fails with an error. Every byte of the header and the
		// first records is flipped, then a sample of the rest.
		bad := bytes.Clone(data)
		for i := range bad {
			if i >= 512 && i%61 != 0 {
				continue
			}
			bad[i] ^= 0xFF
			ReadWorld(bytes.NewReader(bad), cfg, "hash-abc")
			bad[i] ^= 0xFF
		}
	})
	t.Run("scenario-hash-mismatch", func(t *testing.T) {
		if _, err := ReadWorldFile(path, cfg, "hash-other"); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("got %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("config-mismatch", func(t *testing.T) {
		other := cfg
		other.AccessISPs++
		if _, err := ReadWorldFile(path, other, "hash-abc"); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("got %v, want ErrSnapshotMismatch", err)
		}
		other = cfg
		other.Sharded = !other.Sharded
		if _, err := ReadWorldFile(path, other, "hash-abc"); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("builder flip accepted: got %v, want ErrSnapshotMismatch", err)
		}
	})
}

func TestLoadOrGenerate(t *testing.T) {
	cfg := TinyConfig(42)
	cfg.Sharded = true
	path := filepath.Join(t.TempDir(), "sub", "world.ofnw")

	w1, fromDisk, err := LoadOrGenerate(path, cfg, "h")
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk {
		t.Fatal("first call claimed a disk hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not spilled: %v", err)
	}

	w2, fromDisk, err := LoadOrGenerate(path, cfg, "h")
	if err != nil {
		t.Fatal(err)
	}
	if !fromDisk {
		t.Fatal("second call regenerated instead of streaming the snapshot")
	}
	if sha256.Sum256(canonBytes(t, w1, cfg)) != sha256.Sum256(canonBytes(t, w2, cfg)) {
		t.Fatal("streamed world differs from generated world")
	}

	// A stale snapshot (different scenario hash) is a hard error, not a
	// silent regenerate.
	if _, _, err := LoadOrGenerate(path, cfg, "other"); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("stale snapshot: got %v, want ErrSnapshotMismatch", err)
	}

	// Empty path: plain generation, nothing written.
	w3, fromDisk, err := LoadOrGenerate("", cfg, "h")
	if err != nil || fromDisk {
		t.Fatalf("empty path: err=%v fromDisk=%v", err, fromDisk)
	}
	if sha256.Sum256(canonBytes(t, w1, cfg)) != sha256.Sum256(canonBytes(t, w3, cfg)) {
		t.Fatal("empty-path generation differs")
	}
}
