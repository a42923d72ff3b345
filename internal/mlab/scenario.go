package mlab

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the campaign configuration a resolved spec's
// measurement section declares. It is the only constructor of a Config.
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	return Config{
		Seed:      seed,
		Probes:    sp.Measurement.PingProbes,
		ProbeLoss: sp.Measurement.ProbeLoss,
		MinSites:  sp.Measurement.MinSites,
	}
}
