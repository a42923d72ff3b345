package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzParse drives arbitrary bytes through the strict spec parser: it must
// never panic, input that is not a single JSON document must be an error,
// and anything it accepts must be a valid spec whose canonical form parses
// back to the same spec (same content hash) — the round trip the manifest's
// scenario_hash relies on.
func FuzzParse(f *testing.F) {
	canonical, err := Default().AtScale("tiny").Canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{"version": 1, "base": "tiny", "name": "sparse", "measurement": {"mapping_sample": 2, "traceroute_vms": 8}}`))
	f.Add([]byte(`{"version": 1, "measurement": {"mapping_sample": 0}}`))
	f.Add([]byte(`{"version": 1, "traffic": {"shares": {"google": 0.9}}}`))
	f.Add([]byte(`{"version": 2}`))
	f.Add([]byte(`{"version": 1}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted invalid JSON %q", data)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("accepted an invalid spec: %v", err)
		}
		out, err := sp.Canonical()
		if err != nil {
			t.Fatalf("accepted spec has no canonical form: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, out)
		}
		if again.Hash() != sp.Hash() {
			t.Fatalf("canonical round trip changed the spec:\n%s", out)
		}
	})
}
