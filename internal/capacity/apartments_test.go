package capacity

import (
	"math"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// firstAccessHost returns the first access-network hosting ISP.
func firstAccessHost(t *testing.T, d *hypergiant.Deployment) inet.ASN {
	t.Helper()
	for _, as := range d.HostingISPs() {
		if d.World.ISPs[as].IsAccess() {
			return as
		}
	}
	t.Fatal("no access hosting ISP")
	return 0
}

func TestApartmentsGeneration(t *testing.T) {
	d, _ := buildModel(t, 1)
	isp := firstAccessHost(t, d)
	apts := Apartments(530, isp, 1, scenario.Default().Mix())
	if len(apts) != 530 {
		t.Fatalf("apartments = %d", len(apts))
	}
	for _, a := range apts {
		if a.ISP != isp {
			t.Fatal("apartment in wrong ISP")
		}
		if a.PeakMbps <= 0 {
			t.Fatal("non-positive peak demand")
		}
		var sum float64
		for _, w := range a.Mix {
			if w < 0 {
				t.Fatal("negative mix weight")
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("mix sums to %v", sum)
		}
	}
	// Deterministic.
	again := Apartments(530, isp, 1, scenario.Default().Mix())
	for i := range apts {
		if apts[i].PeakMbps != again[i].PeakMbps {
			t.Fatal("apartments not deterministic")
		}
	}
}

func TestApartmentStudyReproducesSec41(t *testing.T) {
	// The 530-apartment observation: nearby share high at the trough,
	// lower at the peak.
	d, m := buildModel(t, 1)
	// Pick an access host ISP with all four hypergiants for a clean panel.
	isp := firstAccessHost(t, d)
	for _, as := range d.HostingISPs() {
		if d.World.ISPs[as].IsAccess() && len(d.HGsIn(as)) == 4 {
			isp = as
			break
		}
	}
	apts := Apartments(530, isp, 1, scenario.Default().Mix())
	hours := ApartmentStudy(m, apts)
	if len(hours) != 530*24 {
		t.Fatalf("household-hours = %d, want %d", len(hours), 530*24)
	}
	for _, h := range hours {
		if h.Total() < 0 {
			t.Fatal("negative demand")
		}
		for _, v := range h.ByOrigin {
			if v < -1e-9 {
				t.Fatalf("negative origin component: %+v", h)
			}
		}
	}
	s := Summarize(hours)
	if s.Apartments != 530 {
		t.Errorf("panel size = %d", s.Apartments)
	}
	if s.TroughNearby <= s.PeakNearby {
		t.Errorf("nearby share should fall at peak: trough %.3f vs peak %.3f",
			s.TroughNearby, s.PeakNearby)
	}
	if s.TroughNearby < 0.5 {
		t.Errorf("trough nearby share = %.3f; 'the vast majority of traffic comes from nearby servers'", s.TroughNearby)
	}
}

func TestApartmentStudyEmpty(t *testing.T) {
	_, m := buildModel(t, 1)
	if got := ApartmentStudy(m, nil); got != nil {
		t.Error("empty panel should produce nil")
	}
}

func TestFlowOriginStrings(t *testing.T) {
	for o, want := range map[FlowOrigin]string{
		OriginOffnet: "offnet", OriginPNI: "pni", OriginIXP: "ixp", OriginTransit: "transit",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}

func TestApartmentNoLocalOffnetGoesTransit(t *testing.T) {
	// A household whose hypergiant mix has no local deployment must see
	// that share arrive via transit.
	d, m := buildModel(t, 1)
	// Find an access ISP hosting fewer than 4 hypergiants.
	isp := firstAccessHost(t, d)
	found := false
	for _, as := range d.HostingISPs() {
		if d.World.ISPs[as].IsAccess() && len(d.HGsIn(as)) < 4 {
			isp, found = as, true
			break
		}
	}
	if !found {
		t.Skip("every host ISP has all four hypergiants")
	}
	apts := Apartments(10, isp, 1, scenario.Default().Mix())
	hours := ApartmentStudy(m, apts)
	var transit float64
	for _, h := range hours {
		transit += h.ByOrigin[OriginTransit]
	}
	if transit <= 0 {
		t.Error("missing hypergiants should be served via transit")
	}
	_ = traffic.All
}
