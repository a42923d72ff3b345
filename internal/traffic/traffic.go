// Package traffic names the four hypergiants the paper studies and holds
// the arithmetic the paper applies to their published traffic constants
// (§2.1, §3.2): a hypergiant's share of total Internet traffic times the
// fraction its offnets can serve is the fraction of a user's total traffic
// a local offnet delivers, and the sum across hypergiants colocated in one
// facility is the paper's headline "52% of a user's traffic could be coming
// from a single facility". The constants themselves are world parameters:
// they are declared once, in the scenario registry's default spec, and
// reach this package as a Mix.
package traffic

// HG identifies one of the four hypergiants the paper studies.
type HG int

// The four hypergiants, in the paper's Table 1 order.
const (
	Google HG = iota
	Netflix
	Meta
	Akamai
	NumHG // sentinel: number of hypergiants
)

// All lists the hypergiants in canonical order.
var All = []HG{Google, Netflix, Meta, Akamai}

// String implements fmt.Stringer.
func (h HG) String() string {
	switch h {
	case Google:
		return "Google"
	case Netflix:
		return "Netflix"
	case Meta:
		return "Meta"
	case Akamai:
		return "Akamai"
	default:
		return "HG(?)"
	}
}
