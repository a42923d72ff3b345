package rdns

import (
	"fmt"
	"testing"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

// ambiguousHost builds hostnames for an operator whose constant brand token
// "lim" collides with the Lima metro code — the dictionary scan sees two
// candidate codes and gives up; only position identifies the geohint.
func ambiguousHost(metro string, i int) string {
	return fmt.Sprintf("lim-core-%02d.%s%d.net.example.net", i, metro, i%4+1)
}

func ambiguousSamples(n int, seed int64) []TrainingSample {
	r := rngutil.New(seed)
	out := make([]TrainingSample, 0, n)
	for i := 0; i < n; i++ {
		m := geo.Metros[r.Intn(len(geo.Metros))]
		out = append(out, TrainingSample{Hostname: ambiguousHost(m.Code, i), Metro: m.Code})
	}
	return out
}

func TestDictionaryFailsOnAmbiguity(t *testing.T) {
	// Sanity: the baseline extractor cannot handle the colliding brand
	// token (unless the host really is in Lima, where both tokens agree).
	if _, ok := ExtractMetro(ambiguousHost("lhr", 3)); ok {
		t.Fatal("dictionary extracted from an ambiguous hostname; test premise broken")
	}
}

func TestLearnRecoversTemplate(t *testing.T) {
	train := ambiguousSamples(200, 1)
	l := Learn(train, 10, 0.9)
	rules := l.Rules()
	if len(rules) != 1 {
		t.Fatalf("learned %d rules, want 1: %+v", len(rules), rules)
	}
	r := rules[0]
	if r.Domain != "example.net" {
		t.Errorf("rule domain = %q", r.Domain)
	}
	if r.Accuracy < 0.99 {
		t.Errorf("rule accuracy = %.3f", r.Accuracy)
	}

	// Held-out evaluation: learned extraction recovers every location the
	// dictionary cannot.
	test := ambiguousSamples(100, 2)
	var learnedOK, dictOK int
	for _, s := range test {
		if m, ok := l.Extract(s.Hostname); ok && m.Code == s.Metro {
			learnedOK++
		}
		if m, ok := ExtractMetro(s.Hostname); ok && m.Code == s.Metro {
			dictOK++
		}
	}
	if learnedOK < 95 {
		t.Errorf("learned extraction: %d/100 correct", learnedOK)
	}
	if dictOK >= learnedOK {
		t.Errorf("learning shows no advantage: dict %d vs learned %d", dictOK, learnedOK)
	}
}

func TestLearnedFallsBackForUnknownDomains(t *testing.T) {
	l := Learn(ambiguousSamples(50, 3), 10, 0.9)
	// A hostname under a different domain uses the dictionary path.
	m, ok := l.Extract("cache-google-01.lhr2.as10014.other.org")
	if !ok || m.Code != "lhr" {
		t.Errorf("fallback extraction = %v, %v", m, ok)
	}
	// A hostname under the learned domain with no geohint at the learned
	// position yields nothing rather than a dictionary guess.
	if _, ok := l.Extract("lim-mgmt.static.net.example.net"); ok {
		t.Error("learned template should not fall through to a wrong guess")
	}
}

func TestLearnThresholds(t *testing.T) {
	// Too little support → no rule.
	l := Learn(ambiguousSamples(3, 4), 10, 0.9)
	if len(l.Rules()) != 0 {
		t.Errorf("learned from 3 samples with minSupport 10: %+v", l.Rules())
	}
	// Inconsistent operator (random metro in the hostname, unrelated truth)
	// → no position clears the accuracy bar.
	r := rngutil.New(5)
	var noisy []TrainingSample
	for i := 0; i < 100; i++ {
		host := geo.Metros[r.Intn(len(geo.Metros))]
		truth := geo.Metros[r.Intn(len(geo.Metros))]
		noisy = append(noisy, TrainingSample{
			Hostname: ambiguousHost(host.Code, i),
			Metro:    truth.Code,
		})
	}
	l = Learn(noisy, 10, 0.9)
	if len(l.Rules()) != 0 {
		t.Errorf("learned a rule from noise: %+v", l.Rules())
	}
}

func TestLearnFromSynthesizedPTRs(t *testing.T) {
	// End-to-end: train on the deployment's own PTR corpus (hostnames with
	// geohints paired with facility metros) and check held-out accuracy
	// matches the dictionary on the standard naming scheme.
	d := deployForRDNS(t, 1)
	ptrs := Synthesize(d, ConfigFromScenario(scenario.Default(), 1))
	var samples []TrainingSample
	for addr, host := range ptrs {
		for _, s := range d.Servers {
			if s.Addr == addr {
				samples = append(samples, TrainingSample{
					Hostname: host,
					Metro:    d.World.Facilities[s.Facility].Metro.Code,
				})
				break
			}
		}
		if len(samples) >= 300 {
			break
		}
	}
	if len(samples) < 50 {
		t.Skip("not enough PTR samples")
	}
	half := len(samples) / 2
	l := Learn(samples[:half], 10, 0.7)
	var learnedOK, dictOK, n int
	for _, s := range samples[half:] {
		n++
		if m, ok := l.Extract(s.Hostname); ok && m.Code == s.Metro {
			learnedOK++
		}
		if m, ok := ExtractMetro(s.Hostname); ok && m.Code == s.Metro {
			dictOK++
		}
	}
	if learnedOK < dictOK-n/20 {
		t.Errorf("learned (%d/%d) clearly worse than dictionary (%d/%d)", learnedOK, n, dictOK, n)
	}
}
