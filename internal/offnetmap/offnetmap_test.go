package offnetmap

import (
	"testing"

	"offnetrisk/internal/cert"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// pipeline runs world → deployment → scan → inference for one epoch.
func pipeline(t *testing.T, epoch hypergiant.Epoch, seed int64, rules []Rule) (*hypergiant.Deployment, *Result) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, epoch, hypergiant.DefaultDeployConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := scan.Simulate(d, scan.ConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, Infer(w, recs, rules)
}

func TestInferRecoversGroundTruth2023(t *testing.T) {
	d, res := pipeline(t, hypergiant.Epoch2023, 1, Rules2023())
	for _, hg := range traffic.All {
		truth := d.HostISPs(hg)
		got := res.ISPs[hg]
		if len(got) != len(truth) {
			t.Errorf("%s: inferred %d ISPs, ground truth %d", hg, len(got), len(truth))
		}
		for _, as := range truth {
			if !got[as] {
				t.Errorf("%s: missed hosting ISP AS%d", hg, as)
			}
		}
	}
	// Every inferred offnet is a real one (no false positives from
	// background/onnet/decoy certs).
	truthAddrs := make(map[string]traffic.HG)
	for _, s := range d.Servers {
		truthAddrs[s.Addr.String()] = s.HG
	}
	for _, o := range res.Offnets {
		hg, ok := truthAddrs[o.Addr.String()]
		if !ok {
			t.Errorf("false positive: %s inferred as %s offnet", o.Addr, o.HG)
			continue
		}
		if hg != o.HG {
			t.Errorf("%s attributed to %s, is %s", o.Addr, o.HG, hg)
		}
	}
}

func TestInferRecoversGroundTruth2021(t *testing.T) {
	d, res := pipeline(t, hypergiant.Epoch2021, 2, Rules2021())
	for _, hg := range traffic.All {
		if got, want := res.ISPCount(hg), len(d.HostISPs(hg)); got != want {
			t.Errorf("%s: inferred %d ISPs, ground truth %d", hg, got, want)
		}
	}
}

func TestStale2021RulesMissEvasions(t *testing.T) {
	// The point of §2.2: running the unmodified 2021 methodology against
	// the 2023 deployment must miss Google (no Organization entry any more)
	// and Meta (site-specific names) while still finding Netflix and Akamai.
	d, stale := pipeline(t, hypergiant.Epoch2023, 3, Rules2021())
	if got := stale.ISPCount(traffic.Google); got != 0 {
		t.Errorf("stale rules found %d Google ISPs, want 0 (Org entry removed)", got)
	}
	if got := stale.ISPCount(traffic.Meta); got != 0 {
		t.Errorf("stale rules found %d Meta ISPs, want 0 (site-specific names)", got)
	}
	if got, want := stale.ISPCount(traffic.Netflix), len(d.HostISPs(traffic.Netflix)); got != want {
		t.Errorf("stale rules: Netflix %d, want %d (convention unchanged)", got, want)
	}
	if got, want := stale.ISPCount(traffic.Akamai), len(d.HostISPs(traffic.Akamai)); got != want {
		t.Errorf("stale rules: Akamai %d, want %d (convention unchanged)", got, want)
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	// Table 1 reports growth +23.2% (Google), +37.4% (Netflix), +16.9%
	// (Meta), +0.0% (Akamai). The synthetic reproduction must match the
	// growth within a few points and preserve the footprint ordering.
	_, res21 := pipeline(t, hypergiant.Epoch2021, 1, Rules2021())
	_, res23 := pipeline(t, hypergiant.Epoch2023, 1, Rules2023())
	rows := Table1(res21, res23)
	if len(rows) != 4 {
		t.Fatalf("Table1 has %d rows", len(rows))
	}
	want := map[traffic.HG]float64{
		traffic.Google:  23.2,
		traffic.Netflix: 37.4,
		traffic.Meta:    16.9,
		traffic.Akamai:  0.0,
	}
	for _, row := range rows {
		if row.ISPs2021 == 0 {
			t.Fatalf("%s: zero 2021 ISPs", row.HG)
		}
		g := row.GrowthPct()
		if g < want[row.HG]-12 || g > want[row.HG]+12 {
			t.Errorf("%s growth = %+.1f%%, want ≈%+.1f%%", row.HG, g, want[row.HG])
		}
	}
	if !(rows[0].ISPs2023 > rows[1].ISPs2023 && rows[1].ISPs2023 > rows[3].ISPs2023) {
		t.Errorf("footprint order violated: %+v", rows)
	}
}

func TestRuleMatching(t *testing.T) {
	google2023 := Rules2023()[0]
	cases := []struct {
		name string
		c    cert.Certificate
		want bool
	}{
		{"google offnet", cert.Certificate{
			SubjectCN: "*.googlevideo.com", Issuer: "Google Trust Services LLC"}, true},
		{"wrong issuer", cert.Certificate{
			SubjectCN: "*.googlevideo.com", Issuer: "Evil CA"}, false},
		{"decoy mid-name", cert.Certificate{
			SubjectCN: "googlevideo.com.cdn1.example.org", Issuer: "Google Trust Services LLC"}, false},
		{"empty", cert.Certificate{}, false},
	}
	for _, tc := range cases {
		if got := google2023.Matches(tc.c); got != tc.want {
			t.Errorf("%s: Matches = %v, want %v", tc.name, got, tc.want)
		}
	}

	meta2023 := Rules2023()[2]
	if !meta2023.Matches(cert.Certificate{SubjectCN: "*.fbhx2-2.fna.fbcdn.net"}) {
		t.Error("Meta rule must match site-specific names")
	}
	if meta2023.Matches(cert.Certificate{SubjectCN: "fbcdn.net"}) {
		t.Error("Meta rule must not match the bare suffix decoy")
	}
}

func TestInferSkipsUnroutedAndOnnet(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(5))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	googleAS := d.ContentAS[traffic.Google]
	onnetAddr, err := w.AllocHostIn(googleAS)
	if err != nil {
		t.Fatal(err)
	}
	googleCert := cert.Certificate{SubjectCN: "*.googlevideo.com", Issuer: "Google Trust Services LLC"}
	recs := []scan.Record{
		{Addr: onnetAddr, Cert: googleCert}, // onnet: content AS space
		{Addr: 42, Cert: googleCert},        // unrouted
	}
	res := Infer(w, recs, Rules2023())
	if len(res.Offnets) != 0 {
		t.Errorf("onnet/unrouted records classified as offnets: %+v", res.Offnets)
	}
}

func TestResultHelpers(t *testing.T) {
	d, res := pipeline(t, hypergiant.Epoch2023, 1, Rules2023())
	hosting := res.HostingISPs()
	if len(hosting) == 0 {
		t.Fatal("no hosting ISPs")
	}
	for i := 1; i < len(hosting); i++ {
		if hosting[i-1] >= hosting[i] {
			t.Fatal("HostingISPs not strictly ascending")
		}
	}
	addrs := res.AddrsOf(traffic.Netflix)
	if len(addrs) == 0 {
		t.Fatal("no Netflix addresses")
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i-1] > addrs[i] {
			t.Fatal("AddrsOf not sorted")
		}
	}
	_ = d
	// GrowthPct guards division by zero.
	if g := (Table1Row{HG: traffic.Google, ISPs2021: 0, ISPs2023: 5}).GrowthPct(); g != 0 {
		t.Errorf("GrowthPct with zero base = %v", g)
	}
}
