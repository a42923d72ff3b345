package session

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the session-simulation configuration a resolved
// spec declares. It is the only constructor of a Config.
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	return Config{
		Seed:   seed,
		PerISP: sp.Measurement.SessionsPerISP,
		Mix:    sp.Mix(),
	}
}
