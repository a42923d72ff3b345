package rdns

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the PTR-synthesis configuration a resolved
// spec's measurement section declares. It is the only constructor of a
// Config.
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	return Config{
		Seed:             seed,
		CoverageFraction: sp.Measurement.RDNSCoverage,
		GeoHintFraction:  sp.Measurement.RDNSGeoHint,
		StaleFraction:    sp.Measurement.RDNSStale,
	}
}
