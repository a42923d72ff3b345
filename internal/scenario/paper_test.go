package scenario

import (
	"math"
	"testing"

	"offnetrisk/internal/traffic"
)

// The paper's traffic arithmetic (§2.1, §3.2), checked on the mix the
// default scenario resolves to.

// TestDefaultMatchesConstants: the default scenario declares the paper's
// published traffic constants.
func TestDefaultMatchesConstants(t *testing.T) {
	mix := Default().Mix()
	want := traffic.Mix{
		Shares:             [traffic.NumHG]float64{0.21, 0.09, 0.15, 0.175},
		OffnetFractions:    [traffic.NumHG]float64{0.80, 0.95, 0.86, 0.75},
		OffnetProvisioning: 0.92,
	}
	if mix != want {
		t.Fatalf("default scenario mix %+v, want the paper's %+v", mix, want)
	}
	for _, h := range traffic.All {
		steady := 1 - 0.92*want.OffnetFractions[h]
		if got := mix.SteadyInterdomainShare(h); math.Abs(got-steady) > 1e-12 {
			t.Errorf("%s steady interdomain share %v, want %v", h, got, steady)
		}
	}
}

func TestPaperConstants(t *testing.T) {
	// §2.1 / §3.2 arithmetic, to the paper's rounding.
	mix := Default().Mix()
	cases := []struct {
		hg      traffic.HG
		share   float64
		rounded float64
	}{
		{traffic.Google, 0.21 * 0.80, 0.17},  // "21% × 80% = 17%"
		{traffic.Netflix, 0.09 * 0.95, 0.09}, // "9% × 95% = 9%"
		{traffic.Meta, 0.15 * 0.86, 0.13},    // "15% × 86% = 13%"
		{traffic.Akamai, 0.175 * 0.75, 0.13}, // "17.5% × 75% = 13%"
	}
	for _, tc := range cases {
		got := mix.FacilityShare(tc.hg)
		if math.Abs(got-tc.share) > 1e-12 {
			t.Errorf("%s FacilityShare = %v, want %v", tc.hg, got, tc.share)
		}
		if math.Abs(got-tc.rounded) > 0.005 {
			t.Errorf("%s FacilityShare = %v, paper rounds to %v", tc.hg, got, tc.rounded)
		}
	}
}

func TestAllFourSumTo52Percent(t *testing.T) {
	// "A facility hosting all four hypergiants can serve 17% + 9% + 13% +
	// 13% = 52% of a user's traffic!"
	got := Default().Mix().CombinedFacilityShare(traffic.All)
	if got < 0.51 || got > 0.53 {
		t.Errorf("combined share = %.4f, want ≈0.52", got)
	}
}

func TestCombinedDeduplicates(t *testing.T) {
	mix := Default().Mix()
	single := mix.CombinedFacilityShare([]traffic.HG{traffic.Google})
	dup := mix.CombinedFacilityShare([]traffic.HG{traffic.Google, traffic.Google, traffic.Google})
	if single != dup {
		t.Errorf("duplicate HGs double-counted: %v vs %v", single, dup)
	}
	if mix.CombinedFacilityShare(nil) != 0 {
		t.Error("empty set should be 0")
	}
	if mix.CombinedFacilityShare([]traffic.HG{traffic.HG(99), traffic.HG(-1)}) != 0 {
		t.Error("invalid HGs should contribute 0")
	}
}

func TestSharesAreProbabilities(t *testing.T) {
	mix := Default().Mix()
	var sum float64
	for _, h := range traffic.All {
		if s := mix.Share(h); s <= 0 || s >= 1 {
			t.Errorf("%s Share = %v out of (0,1)", h, s)
		}
		if f := mix.OffnetFraction(h); f <= 0 || f > 1 {
			t.Errorf("%s OffnetFraction = %v out of (0,1]", h, f)
		}
		sum += mix.Share(h)
	}
	if sum >= 1 {
		t.Errorf("hypergiant shares sum to %v ≥ 1", sum)
	}
}
