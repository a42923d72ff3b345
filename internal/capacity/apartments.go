package capacity

import (
	"math"
	"sort"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/traffic"
)

// §4.1: "Our analysis of traffic to 530 residential apartments supports
// this claim. During low traffic times of day, the vast majority of traffic
// comes from nearby servers, including Netflix and Akamai offnets hosted in
// the ISP. During peak periods, a higher fraction of traffic from the same
// services instead comes from more distant servers."
//
// This file reproduces that observation at the household level: synthetic
// apartments with individual diurnal demand, each flow labelled by where the
// serving capacity model actually sourced it.

// Apartment is one residential subscriber line.
type Apartment struct {
	ID  int
	ISP inet.ASN
	// Mix is the apartment's per-hypergiant demand weight (streaming-heavy
	// households skew Netflix, etc.).
	Mix [traffic.NumHG]float64
	// PeakMbps is the household's peak-hour demand.
	PeakMbps float64
	// Phase shifts the household's diurnal curve by whole hours.
	Phase int
}

// Apartments synthesizes n households inside one ISP whose per-hypergiant
// demand weights follow the given traffic mix.
func Apartments(n int, isp inet.ASN, seed int64, mix traffic.Mix) []Apartment {
	r := rngutil.New(seed ^ 0xa9a97)
	out := make([]Apartment, 0, n)
	for i := 0; i < n; i++ {
		a := Apartment{
			ID:       i,
			ISP:      isp,
			PeakMbps: rngutil.LogNormal(r, math.Log(8), 0.6),
			Phase:    rngutil.IntBetween(r, -2, 2),
		}
		var sum float64
		for hg := range a.Mix {
			w := mix.Share(traffic.HG(hg)) * math.Exp(r.NormFloat64()*0.5)
			a.Mix[hg] = w
			sum += w
		}
		for hg := range a.Mix {
			a.Mix[hg] /= sum
		}
		out = append(out, a)
	}
	return out
}

// FlowOrigin classifies where a household flow was served from.
type FlowOrigin int

// Flow origins, ordered by distance from the subscriber.
const (
	OriginOffnet  FlowOrigin = iota // in-ISP offnet: "nearby"
	OriginPNI                       // hypergiant edge over dedicated peering
	OriginIXP                       // hypergiant edge over an exchange
	OriginTransit                   // distant: via the ISP's providers
)

// String implements fmt.Stringer.
func (o FlowOrigin) String() string {
	switch o {
	case OriginOffnet:
		return "offnet"
	case OriginPNI:
		return "pni"
	case OriginIXP:
		return "ixp"
	default:
		return "transit"
	}
}

// ApartmentHour is one household-hour: demand in Mbps split by origin.
type ApartmentHour struct {
	Apartment int
	Hour      int
	ByOrigin  [4]float64
}

// Total returns the household-hour demand.
func (h ApartmentHour) Total() float64 {
	var t float64
	for _, v := range h.ByOrigin {
		t += v
	}
	return t
}

// NearbyFrac is the share served from the in-ISP offnet.
func (h ApartmentHour) NearbyFrac() float64 {
	t := h.Total()
	if t <= 0 {
		return 0
	}
	return h.ByOrigin[OriginOffnet] / t
}

// ApartmentStudy simulates a day of the apartment panel against the
// capacity model of their ISP: each hour, the ISP-level serving split
// (offnet vs spillover layers) is applied proportionally to every
// household's per-hypergiant demand. Returns one record per
// (apartment, hour).
func ApartmentStudy(m *Model, apartments []Apartment) []ApartmentHour {
	if len(apartments) == 0 {
		return nil
	}
	isp := apartments[0].ISP

	out := make([]ApartmentHour, 0, len(apartments)*24)
	for hour := 0; hour < 24; hour++ {
		flows := m.Serve(Diurnal[hour], nil, nil)
		// Per-HG origin split for this ISP this hour.
		var split [traffic.NumHG][4]float64
		for _, f := range flows {
			if f.ISP != isp {
				continue
			}
			if f.Demand <= 0 {
				continue
			}
			split[f.HG][OriginOffnet] = f.Offnet / f.Demand
			split[f.HG][OriginPNI] = f.PNI / f.Demand
			split[f.HG][OriginIXP] = f.IXP / f.Demand
			split[f.HG][OriginTransit] = f.Transit / f.Demand
		}
		for _, a := range apartments {
			h := (hour + a.Phase + 24) % 24
			demand := a.PeakMbps * Diurnal[h]
			rec := ApartmentHour{Apartment: a.ID, Hour: hour}
			for hg := range a.Mix {
				d := demand * a.Mix[hg]
				s := split[hg]
				if s[0]+s[1]+s[2]+s[3] == 0 {
					// Hypergiant without a local offnet: everything comes
					// over transit.
					rec.ByOrigin[OriginTransit] += d
					continue
				}
				for o := 0; o < 4; o++ {
					rec.ByOrigin[o] += d * s[o]
				}
			}
			out = append(out, rec)
		}
	}
	return out
}

// PanelSummary aggregates an apartment panel into the §4.1 comparison.
type PanelSummary struct {
	Apartments int
	// NearbyFracAt summarizes the panel's median nearby share at each hour.
	NearbyFracAt [24]float64
	// TroughNearby/PeakNearby are the medians at the overnight trough and
	// evening peak.
	TroughNearby, PeakNearby float64
}

// Summarize reduces the household-hours to the paper's observation.
func Summarize(hours []ApartmentHour) PanelSummary {
	var s PanelSummary
	byHour := make(map[int][]float64)
	apts := make(map[int]bool)
	for _, h := range hours {
		byHour[h.Hour] = append(byHour[h.Hour], h.NearbyFrac())
		apts[h.Apartment] = true
	}
	s.Apartments = len(apts)
	for hour := 0; hour < 24; hour++ {
		vals := byHour[hour]
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		s.NearbyFracAt[hour] = vals[len(vals)/2]
	}
	s.TroughNearby = s.NearbyFracAt[3]
	s.PeakNearby = s.NearbyFracAt[19]
	return s
}
