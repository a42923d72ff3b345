package inet

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadWorld drives arbitrary bytes through the snapshot reader, the
// only path by which a world enters the process from outside: it must never
// panic, and every rejection must be one of the three typed snapshot
// errors. The seeds are a tiny-world snapshot and short truncations of it,
// so mutations start past the header validation and reach the body decoder;
// the checked-in corpus adds one input per rejection class. Keep the seeds
// small: the fuzzing engine minimizes large inputs before it mutates them.
func FuzzReadWorld(f *testing.F) {
	cfg := TinyConfig(42)
	var buf bytes.Buffer
	if err := WriteWorld(&buf, Generate(cfg), cfg, ""); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	f.Add(data)
	for _, n := range []int{0, 4, 8, 64, 96, 160, 256} {
		f.Add(data[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ReadWorld(bytes.NewReader(data), cfg, "")
		if err != nil && !errors.Is(err, ErrSnapshotCorrupt) &&
			!errors.Is(err, ErrSnapshotVersion) && !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("untyped snapshot error: %v", err)
		}
	})
}
