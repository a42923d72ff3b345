package scan

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the scan configuration a resolved spec's
// measurement section declares. It is the only constructor of a Config.
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	return Config{
		Seed:             seed,
		BackgroundPerISP: sp.Measurement.ScanBackgroundPerISP,
		OnnetPerHG:       sp.Measurement.ScanOnnetPerHG,
	}
}
