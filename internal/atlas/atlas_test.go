package atlas

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"offnetrisk/internal/coloc"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/rdns"
	"offnetrisk/internal/scenario"
)

func buildAtlas(t *testing.T, seed int64) (*hypergiant.Deployment, []Entry) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	c, err := mlab.MeasureContext(context.Background(), d, mlab.Sites(163, seed), mlab.ConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloc.AnalyzeMixContext(context.Background(), w, c, []float64{0.1, 0.9}, 1, scenario.Default().Mix())
	if err != nil {
		t.Fatal(err)
	}
	ptrs := rdns.Synthesize(d, rdns.ConfigFromScenario(scenario.Default(), seed))
	return d, Build(d, c, a, ptrs, 0.9)
}

func TestAtlasCoverageAndAccuracy(t *testing.T) {
	_, entries := buildAtlas(t, 1)
	if len(entries) == 0 {
		t.Fatal("empty atlas")
	}
	s := Score(entries)
	// PTR coverage is 45% with 55% geohint rate per hostname, but cluster
	// majority voting lifts per-server location coverage well above the
	// per-hostname rate — the point of clustering first.
	if s.Coverage < 0.5 {
		t.Errorf("coverage = %.2f, want ≥0.5 (cluster voting should lift it)", s.Coverage)
	}
	if s.Accuracy < 0.9 {
		t.Errorf("accuracy = %.2f, want ≥0.9", s.Accuracy)
	}
	for _, e := range entries {
		if e.Confidence < 0 || e.Confidence > 1 {
			t.Fatalf("confidence out of range: %+v", e)
		}
		if e.Metro != "" && e.Confidence == 0 {
			t.Fatalf("located entry without confidence: %+v", e)
		}
	}
}

func TestAtlasBeatsPerHostnameLocation(t *testing.T) {
	// Locating each address only by its own PTR caps coverage at
	// (PTR coverage × geohint rate) ≈ 25%; the cluster vote must beat it.
	d, entries := buildAtlas(t, 1)
	ptrs := rdns.Synthesize(d, rdns.ConfigFromScenario(scenario.Default(), 1))
	var soloLocated int
	for _, e := range entries {
		if host, ok := ptrs[e.Addr]; ok {
			if _, ok := rdns.ExtractMetro(host); ok {
				soloLocated++
			}
		}
	}
	s := Score(entries)
	if s.Located <= soloLocated {
		t.Errorf("cluster voting (%d located) should beat per-hostname (%d)", s.Located, soloLocated)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	_, entries := buildAtlas(t, 2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("round trip: %d vs %d", len(back), len(entries))
	}
	for i := range entries {
		if back[i].Addr != entries[i].Addr || back[i].Metro != entries[i].Metro ||
			back[i].Cluster != entries[i].Cluster || back[i].ISP != entries[i].ISP {
			t.Fatalf("entry %d differs: %+v vs %+v", i, back[i], entries[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"short row": "ip,hypergiant,asn,cluster,metro,confidence,true_metro\n1.2.3.4,Google\n",
		"bad ip":    "ip,hypergiant,asn,cluster,metro,confidence,true_metro\nxxx,Google,1,0,lhr,1.0,lhr\n",
		"bad asn":   "ip,hypergiant,asn,cluster,metro,confidence,true_metro\n1.2.3.4,Google,zz,0,lhr,1.0,lhr\n",
		"bad conf":  "ip,hypergiant,asn,cluster,metro,confidence,true_metro\n1.2.3.4,Google,1,0,lhr,zz,lhr\n",
	}
	for name, input := range cases {
		if _, err := ReadCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Header-only is fine.
	got, err := ReadCSV(strings.NewReader("ip,hypergiant,asn,cluster,metro,confidence,true_metro\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("header-only: %v, %v", got, err)
	}
}

func TestScoreEmpty(t *testing.T) {
	s := Score(nil)
	if s.Coverage != 0 || s.Accuracy != 0 {
		t.Errorf("empty score = %+v", s)
	}
}
