package inet

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the generation config a resolved spec's topology
// section declares. It is the only constructor of a world config.
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	t := sp.Topology
	return Config{
		Seed:            seed,
		AccessISPs:      t.AccessISPs,
		TransitISPs:     t.TransitISPs,
		Backbones:       t.Backbones,
		IXPs:            t.IXPs,
		TotalUsers:      t.TotalUsers,
		ZipfExponent:    t.ZipfExponent,
		UsersPerSlash24: t.UsersPerSlash24,
		Sharded:         t.Sharded,
	}
}

// TinyConfig is the registry's tiny world: the miniature topology unit tests
// and benchmarks build.
func TinyConfig(seed int64) Config { return ConfigFromScenario(scenario.MustLookup("tiny"), seed) }
