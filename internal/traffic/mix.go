package traffic

// Mix is one world's traffic constants: what each hypergiant carries and
// how much of it its offnets serve. A scenario spec's traffic section
// resolves to a Mix (scenario.Spec.Mix); the default spec's is the paper's
// published numbers.
type Mix struct {
	// Shares is each hypergiant's fraction of total Internet traffic.
	Shares [NumHG]float64
	// OffnetFractions is the fraction of each hypergiant's traffic its
	// offnets serve for covered clients.
	OffnetFractions [NumHG]float64
	// OffnetProvisioning is the economy-wide ratio of offnet capacity to
	// the cacheable share of peak demand. Both the deployment layer
	// (interconnect sizing) and the capacity model key off it.
	OffnetProvisioning float64
}

// Share is the hypergiant's fraction of total Internet traffic under this
// mix.
func (m Mix) Share(h HG) float64 {
	if h < 0 || h >= NumHG {
		return 0
	}
	return m.Shares[h]
}

// OffnetFraction is the fraction of the hypergiant's traffic its offnets
// serve under this mix.
func (m Mix) OffnetFraction(h HG) float64 {
	if h < 0 || h >= NumHG {
		return 0
	}
	return m.OffnetFractions[h]
}

// SteadyInterdomainShare is the share of the hypergiant's peak demand
// crossing interdomain links in steady state under this mix.
func (m Mix) SteadyInterdomainShare(h HG) float64 {
	return 1 - m.OffnetProvisioning*m.OffnetFraction(h)
}

// FacilityShare is the fraction of a user's total traffic a local offnet of
// this hypergiant can serve under this mix.
func (m Mix) FacilityShare(h HG) float64 {
	return m.Share(h) * m.OffnetFraction(h)
}

// CombinedFacilityShare sums FacilityShare over a set of colocated
// hypergiants, ignoring duplicates and out-of-range values.
func (m Mix) CombinedFacilityShare(hgs []HG) float64 {
	var total float64
	seen := [NumHG]bool{}
	for _, h := range hgs {
		if h < 0 || h >= NumHG || seen[h] {
			continue
		}
		seen[h] = true
		total += m.FacilityShare(h)
	}
	return total
}

// ParseHG maps a lowercase hypergiant name ("google", "netflix", "meta",
// "akamai") to its HG value.
func ParseHG(name string) (HG, bool) {
	switch name {
	case "google":
		return Google, true
	case "netflix":
		return Netflix, true
	case "meta":
		return Meta, true
	case "akamai":
		return Akamai, true
	default:
		return NumHG, false
	}
}

// Key is the lowercase spec-file key for the hypergiant.
func (h HG) Key() string {
	switch h {
	case Google:
		return "google"
	case Netflix:
		return "netflix"
	case Meta:
		return "meta"
	case Akamai:
		return "akamai"
	default:
		return "hg?"
	}
}
