// Property-based conformance suite for the fault-injection layer: for a few
// hundred derived (chaos seed, profile) pairs, the pipelines under chaos must
// keep every funnel balanced, never leak a dropped target into downstream
// clustering, shrink the usable-ISP set monotonically with the fault rate,
// and mark the run degraded exactly when a stage crosses its threshold.
package chaos_test

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/coloc"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/offnetmap"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/tracert"
	"offnetrisk/internal/traffic"
)

// propSeed roots every derived chaos seed in the suite.
const propSeed = 0x5EED5

// fixture is the world the whole suite perturbs, built once: chaos must
// never mutate the substrate, only the measurements taken over it.
var fixture struct {
	once  sync.Once
	w     *inet.World
	d     *hypergiant.Deployment
	recs  []scan.Record
	sites []mlab.Site
}

func propFixture(t *testing.T) (*inet.World, *hypergiant.Deployment, []scan.Record, []mlab.Site) {
	t.Helper()
	fixture.once.Do(func() {
		fixture.w = inet.Generate(inet.TinyConfig(7))
		d, err := hypergiant.Deploy(fixture.w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		fixture.d = d
		recs, err := scan.Simulate(d, scan.ConfigFromScenario(scenario.Default(), 7))
		if err != nil {
			t.Fatal(err)
		}
		fixture.recs = recs
		fixture.sites = mlab.Sites(40, 7)
	})
	return fixture.w, fixture.d, fixture.recs, fixture.sites
}

// randomProfile derives the i-th arbitrary profile: each fault kind is off
// ~1/3 of the time, otherwise drawn up to rates well past "heavy". Backoff
// is zero so retries never sleep in tests.
func randomProfile(i int64) chaos.Profile {
	f := rngutil.NewFast(uint64(rngutil.Derive(propSeed, 1, i)))
	draw := func(max float64) float64 {
		if f.Float64() < 1.0/3 {
			return 0
		}
		return f.Float64() * max
	}
	return chaos.Profile{
		Name:           "prop",
		BlackoutProb:   draw(0.35),
		ProbeLossExtra: draw(0.35),
		StragglerProb:  draw(0.5),
		StragglerMs:    5 + f.Float64()*45,
		TruncateProb:   draw(0.5),
		HopSilentProb:  draw(0.5),
		HopNoiseProb:   draw(0.25),
		CertFailProb:   draw(0.35),
		CertMangleProb: draw(0.2),
		TransientProb:  draw(0.35),
		Retry:          chaos.RetryPolicy{MaxAttempts: 1 + int(f.Uint64()%4)},
	}
}

// pingCampaign runs the measurement stage against the fixture under inj.
func pingCampaign(t *testing.T, inj *chaos.Injector) *mlab.Campaign {
	t.Helper()
	_, d, _, sites := propFixture(t)
	cfg := mlab.ConfigFromScenario(scenario.Default(), 7)
	cfg.Probes = 4
	cfg.MinSites = 25
	cfg.Workers = 4
	cfg.Chaos = inj
	c, err := mlab.MeasureContext(context.Background(), d, sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// auditDegraded recomputes the degradation verdict from raw snapshots with
// independent arithmetic and checks Annotate agrees.
func auditDegraded(t *testing.T, inj *chaos.Injector, snaps []obs.FunnelSnapshot) {
	t.Helper()
	th := chaos.DefaultThresholds()
	m := &obs.Manifest{Funnels: snaps}
	chaos.Annotate(m, inj, th)

	var wantStages []string
	for _, s := range snaps {
		var chaosDrops int64
		for _, dr := range s.Drops {
			if strings.HasPrefix(dr.Reason, chaos.ChaosReasonPrefix) {
				chaosDrops += dr.N
			}
		}
		if s.In > 0 && float64(chaosDrops)/float64(s.In) > th.For(s.Name) {
			wantStages = append(wantStages, s.Name)
		}
	}
	sort.Strings(wantStages)

	if inj == nil {
		if m.Degraded || m.ChaosProfile != "" || len(wantStages) != 0 {
			t.Fatalf("clean run degraded: manifest=%+v stages=%v", m, wantStages)
		}
		return
	}
	if m.Degraded != (len(wantStages) > 0) {
		t.Fatalf("degraded=%v but %d stages over threshold (%v)", m.Degraded, len(wantStages), wantStages)
	}
	if len(m.DegradedStages) != len(wantStages) {
		t.Fatalf("DegradedStages = %v, independent audit says %v", m.DegradedStages, wantStages)
	}
	for i := range wantStages {
		if m.DegradedStages[i] != wantStages[i] {
			t.Fatalf("DegradedStages = %v, independent audit says %v", m.DegradedStages, wantStages)
		}
	}
}

// TestPropertyPingAndClassify is the core property loop: across 200 derived
// (seed, profile) pairs, the ping campaign and the cert classification keep
// every funnel balanced, chaos losses replay exactly, and the degradation
// verdict matches an independent recomputation.
func TestPropertyPingAndClassify(t *testing.T) {
	w, d, recs, _ := propFixture(t)
	iters := int64(200)
	if testing.Short() {
		iters = 40
	}
	rules := offnetmap.Rules2023()
	for i := int64(0); i < iters; i++ {
		obs.Default.Reset()
		prof := randomProfile(i)
		inj := chaos.New(prof, rngutil.Derive(propSeed, 2, i))

		c := pingCampaign(t, inj)
		res := offnetmap.InferChaos(w, recs, rules, inj)

		// Replay audit: the campaign's chaos-lost count must equal a pure
		// replay of the blackout/transient decisions over the deployment.
		var wantLost int
		lostISP := make(map[inet.ASN]bool)
		for _, s := range d.Servers {
			if !s.Responsive {
				continue
			}
			if inj.TargetBlackout(int64(s.Addr)) || inj.TransientLost(chaos.StagePing, int64(s.Addr), 0) {
				wantLost++
				lostISP[s.ISP] = true
			}
		}
		if c.ChaosLost != wantLost {
			t.Fatalf("iter %d: campaign lost %d targets, replay says %d", i, c.ChaosLost, wantLost)
		}

		// No usable ISP may have lost an offnet; no surviving measurement
		// may reference a chaos-lost address.
		for as, ms := range c.ByISP {
			if lostISP[as] {
				t.Fatalf("iter %d: ISP %d usable despite a chaos-lost offnet", i, as)
			}
			for _, m := range ms {
				if inj.TargetBlackout(int64(m.Target.Addr)) ||
					inj.TransientLost(chaos.StagePing, int64(m.Target.Addr), 0) {
					t.Fatalf("iter %d: dropped target %v survived into ISP %d", i, m.Target.Addr, as)
				}
			}
		}

		// Classification audit: no inferred offnet may carry a failed or
		// mangled certificate.
		for _, o := range res.Offnets {
			if inj.CertFetchFailed(int64(o.Addr)) || inj.CertMangled(int64(o.Addr)) {
				t.Fatalf("iter %d: offnet %v classified from a chaos-dropped record", i, o.Addr)
			}
		}

		snaps := obs.Default.FunnelSnapshots()
		for _, s := range snaps {
			if !s.Balanced() {
				t.Fatalf("iter %d: funnel %s unbalanced under chaos: %+v", i, s.Name, s)
			}
		}
		auditDegraded(t, inj, snaps)
	}
}

// TestPropertyColocClustersExcludeDropped: clustering only ever sees
// surviving measurements — for sampled profiles, every cluster label indexes
// a measurement whose target provably survived the fault replay.
func TestPropertyColocClustersExcludeDropped(t *testing.T) {
	w, _, _, _ := propFixture(t)
	iters := int64(20)
	if testing.Short() {
		iters = 6
	}
	for i := int64(0); i < iters; i++ {
		obs.Default.Reset()
		prof := randomProfile(1000 + i)
		inj := chaos.New(prof, rngutil.Derive(propSeed, 3, i))
		c := pingCampaign(t, inj)
		a, err := coloc.AnalyzeMixContext(context.Background(), w, c, []float64{0.9}, 1, scenario.Default().Mix())
		if err != nil {
			t.Fatal(err)
		}
		for as, r := range a.PerISP {
			ms := c.ByISP[as]
			xr := r.PerXi[0.9]
			if xr == nil || len(xr.Labels) != len(ms) {
				t.Fatalf("iter %d: ISP %d labels misaligned with measurements", i, as)
			}
			for j := range xr.Labels {
				addr := int64(ms[j].Target.Addr)
				if inj.TargetBlackout(addr) || inj.TransientLost(chaos.StagePing, addr, 0) {
					t.Fatalf("iter %d: cluster label %d of ISP %d references dropped target", i, j, as)
				}
			}
		}
	}
}

// TestPropertyISPGateMonotone: raising the fault rate can only shrink the
// usable-ISP set — the fault sets are nested across probabilities and the
// survivors' measurement streams are untouched, so usable(p') ⊆ usable(p)
// for p' > p, seed by seed.
func TestPropertyISPGateMonotone(t *testing.T) {
	_, _, _, _ = propFixture(t)
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	probs := []float64{0, 0.02, 0.05, 0.1, 0.25, 0.5}
	for cs := int64(0); cs < seeds; cs++ {
		chaosSeed := rngutil.Derive(propSeed, 4, cs)
		var prev map[inet.ASN]bool
		prevMeasured := -1
		for _, p := range probs {
			obs.Default.Reset()
			// Blackout + transient only: probe loss would perturb survivors'
			// RTT vectors and break strict nesting of the natural gate.
			prof := chaos.Profile{
				Name: "mono", BlackoutProb: p / 2, TransientProb: p / 2,
				Retry: chaos.RetryPolicy{MaxAttempts: 2},
			}
			c := pingCampaign(t, chaos.New(prof, chaosSeed))
			cur := make(map[inet.ASN]bool, len(c.ByISP))
			for as := range c.ByISP {
				cur[as] = true
			}
			if prev != nil {
				if c.MeasuredISPs > prevMeasured {
					t.Fatalf("seed %d: usable ISPs grew from %d to %d at p=%v", cs, prevMeasured, c.MeasuredISPs, p)
				}
				for as := range cur {
					if !prev[as] {
						t.Fatalf("seed %d: ISP %d usable at p=%v but not at the lower rate", cs, as, p)
					}
				}
			}
			prev, prevMeasured = cur, c.MeasuredISPs
		}
	}
}

// TestPropertyTracertFunnelsBalanced: the traceroute survey's attempt and
// hop funnels reconcile under arbitrary profiles, and the attempted count
// replays from the chaos decisions.
func TestPropertyTracertFunnelsBalanced(t *testing.T) {
	w, d, _, _ := propFixture(t)
	iters := int64(25)
	if testing.Short() {
		iters = 6
	}
	for i := int64(0); i < iters; i++ {
		obs.Default.Reset()
		prof := randomProfile(2000 + i)
		inj := chaos.New(prof, rngutil.Derive(propSeed, 5, i))
		cfg := tracert.ConfigFromScenario(scenario.Default(), 7)
		cfg.VMs = 6
		cfg.TargetsPerISP = 2
		cfg.Workers = 4
		cfg.Chaos = inj
		traces, err := tracert.SurveyContext(context.Background(), d, traffic.Google, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tracert.Infer(w, traffic.Google, d.ContentAS[traffic.Google], traces)

		var issued int64
		for _, trs := range traces {
			issued += int64(len(trs))
		}
		snaps := obs.Default.FunnelSnapshots()
		var attempts, hops obs.FunnelSnapshot
		for _, s := range snaps {
			if !s.Balanced() {
				t.Fatalf("iter %d: funnel %s unbalanced: %+v", i, s.Name, s)
			}
			switch s.Name {
			case "tracert.traces":
				attempts = s
			case "tracert.hops":
				hops = s
			}
		}
		if inj.Enabled() {
			if attempts.Name == "" {
				t.Fatalf("iter %d: chaos run missing the tracert.traces funnel", i)
			}
			if attempts.Out != issued {
				t.Fatalf("iter %d: attempts funnel kept %d traces, survey issued %d", i, attempts.Out, issued)
			}
			if attempts.In != issued+attempts.DropN("chaos_transient") {
				t.Fatalf("iter %d: attempts funnel does not reconcile: %+v", i, attempts)
			}
		}
		if hops.Name == "" || hops.In == 0 {
			t.Fatalf("iter %d: hop funnel never fed: %+v", i, hops)
		}
		auditDegraded(t, inj, snaps)
	}
}
