// Package cascade simulates the failure scenarios of §3.3 and §4.3: a
// facility hosting colocated offnets from several hypergiants fails (or a
// demand surge hits), the lost offnet capacity spills over interdomain
// links, the spill lands on shared IXP fabrics and transit providers that
// "do not have enough capacity to handle hypergiant traffic without
// congestion", and the congestion collaterally damages networks that had
// nothing to do with the original failure.
package cascade

import (
	"context"
	"sort"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/par"
	"offnetrisk/internal/traffic"
)

var mScenariosSimulated = obs.NewCounter("cascade.scenarios_simulated",
	"failure/surge scenarios run through the spillover simulator")

// Scenario describes one what-if.
type Scenario struct {
	// FailFacilities lists facilities that go dark.
	FailFacilities map[inet.FacilityID]bool
	// Surge multiplies one or more hypergiants' demand (flash crowd, bad
	// software update shifting load).
	Surge map[traffic.HG]float64
	// DemandMult is the diurnal multiplier; 1.0 = peak hour.
	DemandMult float64
	// SharedHeadroom is how much headroom shared links (IXP fabrics,
	// transit) have above their normal peak load; §4.3 argues it is small.
	SharedHeadroom float64
}

// DefaultScenario returns a peak-hour scenario with the paper's pessimistic
// (but evidenced) shared-link headroom.
func DefaultScenario() Scenario {
	return Scenario{DemandMult: 1.0, SharedHeadroom: 1.25}
}

// LinkLoad is the load/capacity state of one shared resource.
type LinkLoad struct {
	LoadGbps     float64
	CapacityGbps float64
}

// Congested reports whether the link is at or beyond capacity. The boundary
// is inclusive: a positively loaded link whose load equals its capacity has
// zero headroom and Utilization() == 1.0, and temporal event schedules can
// land load exactly on capacity, so load == capacity counts as congested.
// An unused link (load 0) is never congested, whatever its capacity.
func (l LinkLoad) Congested() bool { return l.LoadGbps > 0 && l.LoadGbps >= l.CapacityGbps }

// Utilization returns load/capacity (0 when capacity is 0).
func (l LinkLoad) Utilization() float64 {
	if l.CapacityGbps <= 0 {
		return 0
	}
	return l.LoadGbps / l.CapacityGbps
}

// Report is the outcome of one scenario.
type Report struct {
	Scenario Scenario
	Baseline []capacity.Flow
	Flows    []capacity.Flow
	// IXPLoad / TransitLoad after the scenario; capacities derive from the
	// baseline loads times the shared headroom.
	IXPLoad     map[inet.IXPID]LinkLoad
	TransitLoad map[inet.ASN]LinkLoad
	// DirectISPs lost offnet capacity (their facility failed); their users
	// see degraded service first.
	DirectISPs map[inet.ASN]bool
	// CollateralISPs did not fail but route over a congested shared link.
	CollateralISPs map[inet.ASN]bool
	// HGsImpacted lost offnet capacity somewhere.
	HGsImpacted []traffic.HG
}

// DirectUsers sums users in directly affected ISPs.
func (r *Report) DirectUsers(w *inet.World) float64 { return w.UsersInISPs(r.DirectISPs) }

// CollateralUsers sums users in collaterally affected ISPs.
func (r *Report) CollateralUsers(w *inet.World) float64 { return w.UsersInISPs(r.CollateralISPs) }

// CongestedIXPs returns the exchanges pushed past capacity, ascending.
func (r *Report) CongestedIXPs() []inet.IXPID {
	var out []inet.IXPID
	for id, l := range r.IXPLoad {
		if l.Congested() {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CongestedTransits returns the transit providers pushed past capacity,
// ascending.
func (r *Report) CongestedTransits() []inet.ASN {
	var out []inet.ASN
	for as, l := range r.TransitLoad {
		if l.Congested() {
			out = append(out, as)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sanitized fills the zero-value scenario fields with the defaults Simulate
// has always applied; idempotent.
func (sc Scenario) sanitized() Scenario {
	if sc.DemandMult <= 0 {
		sc.DemandMult = 1.0
	}
	if sc.SharedHeadroom <= 1 {
		sc.SharedHeadroom = 1.25
	}
	return sc
}

// Simulate runs the scenario: serve demand with the failed facilities
// removed, aggregate spill onto shared links, size those links from the
// baseline (no-failure) loads, and trace the collateral damage.
func Simulate(m *capacity.Model, d *hypergiant.Deployment, sc Scenario) *Report {
	sc = sc.sanitized()
	baseline := m.Serve(sc.DemandMult, nil, nil)
	// Under failure/surge the surviving offnets are pushed to burst.
	flows := m.ServeBurst(sc.DemandMult, sc.Surge, sc.FailFacilities)
	return Assess(m, d, sc, baseline, flows)
}

// Assess is the replay entry point behind Simulate: it takes serving splits
// the caller already computed (the temporal engine serves once per clock
// step and hands the result here) and derives the full congestion report —
// shared-link loads, capacities sized from baseline×headroom, direct and
// collateral ISP sets. Simulate(m, d, sc) is exactly
// Assess(m, d, sc, m.Serve(...), m.ServeBurst(...)), so engine trajectories
// and closed-form sweeps agree bit-for-bit by construction.
func Assess(m *capacity.Model, d *hypergiant.Deployment, sc Scenario, baseline, flows []capacity.Flow) *Report {
	mScenariosSimulated.Inc()
	sc = sc.sanitized()
	w := d.World
	rep := &Report{
		Scenario:       sc,
		Baseline:       baseline,
		Flows:          flows,
		DirectISPs:     make(map[inet.ASN]bool),
		CollateralISPs: make(map[inet.ASN]bool),
	}

	// Direct impact: ISPs owning a failed facility, and hypergiants with
	// servers there.
	hgHit := map[traffic.HG]bool{}
	for fid := range sc.FailFacilities {
		if f, ok := w.Facilities[fid]; ok {
			rep.DirectISPs[f.Owner] = true
		}
	}
	for _, s := range d.Servers {
		if sc.FailFacilities[s.Facility] {
			hgHit[s.HG] = true
		}
	}
	for _, hg := range traffic.All {
		if hgHit[hg] {
			rep.HGsImpacted = append(rep.HGsImpacted, hg)
		}
	}

	rep.IXPLoad = loadIXPs(m, w, rep.Flows, baselineIXPs(m, w, rep.Baseline), sc.SharedHeadroom)
	rep.TransitLoad = loadTransits(w, rep.Flows, baselineTransits(w, rep.Baseline), sc.SharedHeadroom)

	// Collateral: ISPs that did not fail but whose serving path crosses a
	// congested shared resource — via their IXP peering or any of their
	// transit providers.
	congIXP := make(map[inet.IXPID]bool)
	for _, id := range rep.CongestedIXPs() {
		congIXP[id] = true
	}
	congTr := make(map[inet.ASN]bool)
	for _, as := range rep.CongestedTransits() {
		congTr[as] = true
	}
	for _, f := range rep.Flows {
		if rep.DirectISPs[f.ISP] {
			continue
		}
		if f.IXP > 0 {
			if id, ok := m.IXPIDOf[f.HG][f.ISP]; ok && congIXP[id] {
				rep.CollateralISPs[f.ISP] = true
			}
		}
		if f.Transit+f.UpstreamOffnet > 0 {
			if isp, ok := w.ISPs[f.ISP]; ok {
				for _, prov := range isp.Providers {
					if congTr[prov] {
						rep.CollateralISPs[f.ISP] = true
					}
				}
			}
		}
	}
	return rep
}

// baselineIXPs computes normal per-exchange hypergiant load.
func baselineIXPs(m *capacity.Model, w *inet.World, flows []capacity.Flow) map[inet.IXPID]float64 {
	out := make(map[inet.IXPID]float64)
	for _, f := range flows {
		if f.IXP <= 0 {
			continue
		}
		if id, ok := m.IXPIDOf[f.HG][f.ISP]; ok {
			out[id] += f.IXP
		}
	}
	return out
}

func loadIXPs(m *capacity.Model, w *inet.World, flows []capacity.Flow, base map[inet.IXPID]float64, headroom float64) map[inet.IXPID]LinkLoad {
	out := make(map[inet.IXPID]LinkLoad)
	load := baselineIXPs(m, w, flows)
	for id, x := range w.IXPs {
		b := base[id]
		// Capacity: whichever is larger of the fabric's provisioned
		// capacity share for hypergiant traffic and baseline×headroom —
		// exchanges are provisioned for their normal peak, not for failover
		// surges.
		cap := b * headroom
		if cap <= 0 {
			cap = x.CapacityGbps
		}
		if l, ok := load[id]; ok || b > 0 {
			out[id] = LinkLoad{LoadGbps: l, CapacityGbps: cap}
		}
	}
	return out
}

// baselineTransits computes normal per-transit-provider hypergiant load:
// each flow's transit share splits evenly over the destination ISP's
// providers.
func baselineTransits(w *inet.World, flows []capacity.Flow) map[inet.ASN]float64 {
	out := make(map[inet.ASN]float64)
	for _, f := range flows {
		load := f.Transit + f.UpstreamOffnet
		if load <= 0 {
			continue
		}
		isp, ok := w.ISPs[f.ISP]
		if !ok || len(isp.Providers) == 0 {
			continue
		}
		per := load / float64(len(isp.Providers))
		for _, prov := range isp.Providers {
			out[prov] += per
		}
	}
	return out
}

func loadTransits(w *inet.World, flows []capacity.Flow, base map[inet.ASN]float64, headroom float64) map[inet.ASN]LinkLoad {
	load := baselineTransits(w, flows)
	out := make(map[inet.ASN]LinkLoad, len(load))
	for as, l := range load {
		cap := base[as] * headroom
		if cap <= 0 {
			// A provider with no baseline hypergiant load still has some
			// capacity; size it from its customers' baseline interdomain
			// traffic floor.
			cap = 10
		}
		out[as] = LinkLoad{LoadGbps: l, CapacityGbps: cap}
	}
	return out
}

// TopFacility returns the ISP's facility hosting offnets from the most
// hypergiants (ties: more servers), plus that hypergiant count — the
// "single facility – perhaps even a single rack" the paper worries about.
func TopFacility(d *hypergiant.Deployment, as inet.ASN) (inet.FacilityID, int) {
	type acc struct {
		hgs     map[traffic.HG]bool
		servers int
	}
	per := make(map[inet.FacilityID]*acc)
	for _, s := range d.ServersIn(as) {
		a := per[s.Facility]
		if a == nil {
			a = &acc{hgs: make(map[traffic.HG]bool)}
			per[s.Facility] = a
		}
		a.hgs[s.HG] = true
		a.servers++
	}
	var best inet.FacilityID
	bestHGs, bestServers := -1, -1
	ids := make([]inet.FacilityID, 0, len(per))
	for id := range per {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := per[id]
		if len(a.hgs) > bestHGs || (len(a.hgs) == bestHGs && a.servers > bestServers) {
			best, bestHGs, bestServers = id, len(a.hgs), a.servers
		}
	}
	return best, bestHGs
}

// SweepStats aggregates a fail-the-top-facility sweep across ISPs.
type SweepStats struct {
	Scenarios int
	// MeanHGsPerFailure is the average number of hypergiants knocked out
	// by a single facility failure — the correlated-risk headline.
	MeanHGsPerFailure float64
	// CongestionFraction is the share of scenarios congesting at least one
	// shared link.
	CongestionFraction float64
	// MeanCollateralISPs is the average number of uninvolved ISPs behind a
	// congested shared link.
	MeanCollateralISPs float64
}

// SweepContext fails the top facility of each given ISP in turn and
// aggregates, one scenario simulation per task on a bounded worker pool.
// Simulate is read-only on the model and deployment and the stats are
// commutative sums, so the aggregate is identical at any worker count.
func SweepContext(ctx context.Context, m *capacity.Model, d *hypergiant.Deployment, isps []inet.ASN, workers int) (SweepStats, error) {
	type outcome struct {
		ok        bool
		hgs, coll float64
		congested bool
	}
	outs, err := par.Map(ctx, len(isps), par.Options{Workers: workers, Name: "facility-sweep"},
		func(_ context.Context, i int) (outcome, error) {
			fid, nHGs := TopFacility(d, isps[i])
			if nHGs <= 0 {
				return outcome{}, nil
			}
			sc := DefaultScenario()
			sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
			rep := Simulate(m, d, sc)
			return outcome{
				ok:        true,
				hgs:       float64(nHGs),
				coll:      float64(len(rep.CollateralISPs)),
				congested: len(rep.CongestedIXPs()) > 0 || len(rep.CongestedTransits()) > 0,
			}, nil
		})
	if err != nil {
		return SweepStats{}, err
	}
	var st SweepStats
	var hgSum, collSum float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		st.Scenarios++
		hgSum += o.hgs
		collSum += o.coll
		if o.congested {
			st.CongestionFraction++
		}
	}
	if st.Scenarios > 0 {
		st.MeanHGsPerFailure = hgSum / float64(st.Scenarios)
		st.MeanCollateralISPs = collSum / float64(st.Scenarios)
		st.CongestionFraction /= float64(st.Scenarios)
	}
	return st, nil
}
