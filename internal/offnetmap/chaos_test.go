package offnetmap

import (
	"bytes"
	"encoding/json"
	"testing"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/scenario"
)

func chaosScan(t *testing.T) (*inet.World, []scan.Record) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(7))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := scan.Simulate(d, scan.ConfigFromScenario(scenario.Default(), 7))
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

// TestInferChaosAccounting: the classify funnel stays balanced with every
// chaos-dropped record attributed, and the drops reconcile with the chaos
// counters.
func TestInferChaosAccounting(t *testing.T) {
	obs.Default.Reset()
	w, recs := chaosScan(t)
	prof, err := chaos.ParseProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(prof, 11)
	res := InferChaos(w, recs, Rules2023(), inj)

	var classify obs.FunnelSnapshot
	for _, s := range obs.Default.FunnelSnapshots() {
		if s.Name == "offnetmap.classify" {
			classify = s
		}
	}
	if !classify.Balanced() {
		t.Fatalf("classify funnel unbalanced under chaos: %+v", classify)
	}
	if classify.In != int64(len(recs)) {
		t.Fatalf("classify.In = %d, want every record (%d)", classify.In, len(recs))
	}
	if got, want := classify.DropN("chaos_fetch_failed"), inj.CertsFailed.Value(); got != want {
		t.Fatalf("funnel chaos_fetch_failed = %d, chaos.certs_failed_total = %d", got, want)
	}
	if got, want := classify.DropN("chaos_malformed"), inj.CertsMangled.Value(); got != want {
		t.Fatalf("funnel chaos_malformed = %d, chaos.certs_mangled_total = %d", got, want)
	}
	if inj.CertsFailed.Value() == 0 || inj.CertsMangled.Value() == 0 {
		t.Fatal("heavy profile dropped no scan records")
	}
	if len(res.Offnets) == 0 {
		t.Fatal("heavy chaos wiped out every offnet — classification untestable")
	}
}

// TestInferChaosSubsetOfClean: chaos only ever removes records, so the
// inferred offnet set is a subset of the clean inference, every surviving
// classification is identical, and repeated runs agree byte-for-byte.
func TestInferChaosSubsetOfClean(t *testing.T) {
	obs.Default.Reset()
	w, recs := chaosScan(t)
	prof, err := chaos.ParseProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(prof, 11)

	clean := Infer(w, recs, Rules2023())
	cleanBy := make(map[netaddr.Addr]Offnet, len(clean.Offnets))
	for _, o := range clean.Offnets {
		cleanBy[o.Addr] = o
	}
	faulty := InferChaos(w, recs, Rules2023(), inj)
	if len(faulty.Offnets) >= len(clean.Offnets) {
		t.Fatalf("chaos inference kept %d offnets, clean kept %d — nothing was dropped",
			len(faulty.Offnets), len(clean.Offnets))
	}
	for _, o := range faulty.Offnets {
		want, ok := cleanBy[o.Addr]
		if !ok {
			t.Fatalf("offnet %v inferred under chaos but not clean", o.Addr)
		}
		if want != o {
			t.Fatalf("offnet %v classified differently under chaos: %+v vs %+v", o.Addr, o, want)
		}
	}

	// Address-keyed faults: a second pass over the same scan loses exactly
	// the same records (the property the three Table 1 passes rely on).
	again := InferChaos(w, recs, Rules2023(), inj)
	a, err := json.Marshal(faulty)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two chaos passes over the same scan disagree")
	}
}
