// Colocation audit: the view from one ISP's network operations team.
//
// The paper argues ISPs have operational reasons to colocate hypergiant
// offnets (§3.1) but thereby concentrate risk (§3.3). This example audits a
// single ISP: which facilities host which hypergiants, how much of its
// users' traffic the busiest facility can serve, and what a failure of that
// facility would do.
//
//	go run ./examples/colocation-audit
package main

import (
	"fmt"
	"log"
	"sort"

	"offnetrisk"
	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

func main() {
	log.SetFlags(0)
	p := offnetrisk.NewPipeline(7, offnetrisk.ScaleTiny)
	w, d, err := p.World2023()
	if err != nil {
		log.Fatal(err)
	}

	// Audit the hosting ISP with the most users.
	hosts := d.HostingISPs()
	sort.Slice(hosts, func(i, j int) bool {
		return w.ISPs[hosts[i]].Users > w.ISPs[hosts[j]].Users
	})
	as := hosts[0]
	isp := w.ISPs[as]
	fmt.Printf("audit of %s (AS%d, %s): %.1fM users, %d facilities\n\n",
		isp.Name, as, isp.Country, isp.Users/1e6, len(isp.Facilities))

	// Facility inventory: hypergiants and racks.
	type facInfo struct {
		hgs     map[traffic.HG]bool
		servers int
		racks   map[int]map[traffic.HG]bool
	}
	inv := make(map[inet.FacilityID]*facInfo)
	for _, s := range d.ServersIn(as) {
		fi := inv[s.Facility]
		if fi == nil {
			fi = &facInfo{hgs: map[traffic.HG]bool{}, racks: map[int]map[traffic.HG]bool{}}
			inv[s.Facility] = fi
		}
		fi.hgs[s.HG] = true
		fi.servers++
		if fi.racks[s.Rack] == nil {
			fi.racks[s.Rack] = map[traffic.HG]bool{}
		}
		fi.racks[s.Rack][s.HG] = true
	}

	mix := p.Scenario().Mix()
	ids := make([]inet.FacilityID, 0, len(inv))
	for id := range inv {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fi := inv[id]
		var hgs []traffic.HG
		for _, hg := range traffic.All {
			if fi.hgs[hg] {
				hgs = append(hgs, hg)
			}
		}
		share := mix.CombinedFacilityShare(hgs)
		sharedRacks := 0
		for _, rackHGs := range fi.racks {
			if len(rackHGs) >= 2 {
				sharedRacks++
			}
		}
		fmt.Printf("facility %-22s %d offnet servers, hypergiants: %v\n",
			w.Facilities[id].Name(), fi.servers, hgs)
		fmt.Printf("  could serve %.0f%% of a user's total traffic; %d racks shared by multiple hypergiants\n",
			100*share, sharedRacks)
	}

	// What happens if the busiest facility fails at peak?
	fid, nHGs := cascade.TopFacility(d, as)
	m := capacity.Build(d, capacity.ConfigFromScenario(p.Scenario(), p.Seed))
	sc := cascade.DefaultScenario()
	sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
	rep := cascade.Simulate(m, d, sc)

	fmt.Printf("\nfailure drill: %s goes dark at peak hour\n", w.Facilities[fid].Name())
	fmt.Printf("  %d hypergiants lose their local offnets simultaneously\n", nHGs)
	var lostOffnet, spill float64
	for i, f := range rep.Flows {
		if f.ISP != as {
			continue
		}
		lostOffnet += rep.Baseline[i].Offnet - f.Offnet
		spill += f.SharedSpill() - rep.Baseline[i].SharedSpill()
	}
	fmt.Printf("  %.1f Gbps of locally served traffic lost; %.1f Gbps pushed onto shared IXP/transit paths\n",
		lostOffnet, spill)
	if n := len(rep.CongestedIXPs()) + len(rep.CongestedTransits()); n > 0 {
		fmt.Printf("  %d shared links congested; %d uninvolved ISPs (%.1fM users) see collateral damage\n",
			n, len(rep.CollateralISPs), rep.CollateralUsers(w)/1e6)
	} else {
		fmt.Printf("  shared paths absorbed the spill this time — headroom was %.0f%%\n",
			100*(sc.SharedHeadroom-1))
	}
}
