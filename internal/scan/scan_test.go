package scan

import (
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

func simTiny(t *testing.T, seed int64) (*hypergiant.Deployment, []Record) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Simulate(d, ConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, recs
}

func TestSimulateCoversAllOffnets(t *testing.T) {
	d, recs := simTiny(t, 1)
	byAddr := make(map[string]Record, len(recs))
	for _, r := range recs {
		byAddr[r.Addr.String()] = r
	}
	for _, s := range d.Servers {
		r, ok := byAddr[s.Addr.String()]
		if !ok {
			t.Fatalf("offnet %s missing from scan", s.Addr)
		}
		if r.Cert.Fingerprint() != s.Cert.Fingerprint() {
			t.Fatalf("offnet %s certificate mismatch", s.Addr)
		}
	}
}

func TestSimulateSortedAndUnique(t *testing.T) {
	_, recs := simTiny(t, 2)
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Addr > recs[i].Addr {
			t.Fatal("records not sorted by address")
		}
		if recs[i-1].Addr == recs[i].Addr {
			t.Fatalf("duplicate scan address %s", recs[i].Addr)
		}
	}
}

func TestSimulateIncludesOnnetAndBackground(t *testing.T) {
	d, recs := simTiny(t, 3)
	w := d.World
	offnetAddrs := make(map[string]bool)
	for _, s := range d.Servers {
		offnetAddrs[s.Addr.String()] = true
	}
	var onnet, background int
	for _, r := range recs {
		if offnetAddrs[r.Addr.String()] {
			continue
		}
		as, ok := w.OwnerOf(r.Addr)
		if !ok {
			t.Fatalf("scan record %s not in routed space", r.Addr)
		}
		if w.ISPs[as].Tier == inet.TierContent {
			onnet++
		} else {
			background++
		}
	}
	if onnet == 0 {
		t.Error("no onnet records")
	}
	if background == 0 {
		t.Error("no background records")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	_, a := simTiny(t, 4)
	_, b := simTiny(t, 4)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || a[i].Cert.Fingerprint() != b[i].Cert.Fingerprint() {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestPoisson(t *testing.T) {
	r := rngutil.New(1)
	if got := poisson(r, 0); got != 0 {
		t.Errorf("poisson(0) = %d", got)
	}
	if got := poisson(r, -1); got != 0 {
		t.Errorf("poisson(-1) = %d", got)
	}
	var sum int
	const n = 5000
	for i := 0; i < n; i++ {
		sum += poisson(r, 3.0)
	}
	mean := float64(sum) / n
	if mean < 2.7 || mean > 3.3 {
		t.Errorf("poisson mean = %v, want ≈3", mean)
	}
}
