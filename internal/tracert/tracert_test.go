package tracert

import (
	"context"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func surveyTiny(t *testing.T, seed int64) (*hypergiant.Deployment, map[inet.ASN][]Trace, map[inet.ASN]ISPInference) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigFromScenario(scenario.Default(), seed)
	cfg.VMs = 24 // keep the tiny survey fast; coverage is still dense
	traces, err := SurveyContext(context.Background(), d, traffic.Google, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inf := Infer(w, traffic.Google, d.ContentAS[traffic.Google], traces)
	return d, traces, inf
}

func TestSurveyCoversEveryISP(t *testing.T) {
	d, traces, _ := surveyTiny(t, 1)
	for _, isp := range d.World.ISPList() {
		if isp.Tier == inet.TierContent {
			if _, ok := traces[isp.ASN]; ok {
				t.Errorf("content AS %d should not be a survey target", isp.ASN)
			}
			continue
		}
		if len(traces[isp.ASN]) == 0 {
			t.Errorf("no traceroutes toward %s", isp.Name)
		}
	}
}

func TestTracesStartInCloudAndReachTarget(t *testing.T) {
	d, traces, _ := surveyTiny(t, 1)
	w := d.World
	googleAS := d.ContentAS[traffic.Google]
	for as, list := range traces {
		tr := list[0]
		if len(tr.Hops) < 3 {
			t.Fatalf("trace to AS%d too short: %d hops", as, len(tr.Hops))
		}
		if owner, ok := w.OwnerOf(tr.Hops[0].Addr); !ok || owner != googleAS {
			t.Fatalf("first hop not in hypergiant space (owner %d)", owner)
		}
		last := tr.Hops[len(tr.Hops)-1]
		if owner, ok := w.OwnerOf(last.Addr); !ok || owner != as {
			t.Fatalf("last hop not in destination ISP (owner %d, want %d)", owner, as)
		}
		break
	}
}

func TestInferMatchesDeploymentGroundTruth(t *testing.T) {
	// ISPs with a PNI or IXP peering in the deployment should be classified
	// peer (or at worst possible, when silent routers hide the adjacency);
	// ISPs without any peering must never be classified as peers.
	d, _, inf := surveyTiny(t, 1)
	peered := make(map[inet.ASN]bool)
	viaPNI := make(map[inet.ASN]bool)
	viaIXP := make(map[inet.ASN]bool)
	for _, p := range d.Peerings {
		if p.HG != traffic.Google {
			continue
		}
		peered[p.ISP] = true
		if p.Kind == hypergiant.PeerPNI {
			viaPNI[p.ISP] = true
		} else {
			viaIXP[p.ISP] = true
		}
	}

	var peeredSeen, peeredMissed, falsePeers int
	for as, i := range inf {
		if peered[as] {
			switch i.Class {
			case ClassPeer:
				peeredSeen++
				if i.ViaPNI && !viaPNI[as] {
					t.Errorf("AS%d inferred PNI without one deployed", as)
				}
				if i.ViaIXP && !viaIXP[as] {
					t.Errorf("AS%d inferred IXP peering without one deployed", as)
				}
			default:
				peeredMissed++
			}
		} else if i.Class == ClassPeer {
			// Backbones interconnect with hypergiants implicitly; any other
			// peer classification without a deployed peering is a false
			// positive.
			if d.World.ISPs[as].Tier != inet.TierBackbone {
				falsePeers++
				t.Errorf("AS%d classified peer without any deployed peering", as)
			}
		}
	}
	if peeredSeen == 0 {
		t.Fatal("no deployed peering was discovered")
	}
	// With 24 VMs and stable silent routers a small miss rate is expected,
	// but most peerings must surface.
	if frac := float64(peeredSeen) / float64(peeredSeen+peeredMissed); frac < 0.7 {
		t.Errorf("discovered only %.2f of deployed peerings", frac)
	}
	_ = falsePeers
}

func TestStatsShapeMatchesSec421(t *testing.T) {
	// §4.2.1: 38.2% of Google-offnet ISPs peer, 13.3% possible, 48.4% no
	// evidence; 62.2% of peers via IXP, 42.5% IXP-only. Match loosely.
	d, _, inf := surveyTiny(t, 1)
	s := Stats(d, traffic.Google, inf)
	if s.HostsTotal == 0 {
		t.Fatal("no hosts")
	}
	frac := func(n int) float64 { return float64(n) / float64(s.HostsTotal) }
	if f := frac(s.HostsPeer); f < 0.2 || f > 0.65 {
		t.Errorf("peer fraction = %.2f, want ≈0.38", f)
	}
	if f := frac(s.HostsNoEvidence); f < 0.25 || f > 0.70 {
		t.Errorf("no-evidence fraction = %.2f, want ≈0.48", f)
	}
	if s.HostsPossible == 0 {
		t.Error("no possible-peering ISPs; silent routers should create some")
	}
	if s.HostsPeer+s.HostsPossible+s.HostsNoEvidence != s.HostsTotal {
		t.Error("host classes do not partition hosts")
	}
	if s.PeersTotal == 0 {
		t.Fatal("no peers at all")
	}
	if f := float64(s.PeersViaIXP) / float64(s.PeersTotal); f < 0.3 || f > 0.95 {
		t.Errorf("via-IXP fraction = %.2f, want ≈0.62", f)
	}
	if s.PeersOnlyIXP > s.PeersViaIXP {
		t.Error("IXP-only cannot exceed via-IXP")
	}
	// More networks peer than host offnets (paper: 9207 peers vs 4697
	// hosts) — at least, peers must extend beyond hosts.
	if s.PeersTotal <= s.HostsPeer {
		t.Errorf("peers (%d) should exceed peering hosts (%d): transit and non-host ISPs peer too",
			s.PeersTotal, s.HostsPeer)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[PeeringClass]string{
		ClassPeer: "peer", ClassPossible: "possible", ClassNoEvidence: "no-evidence",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestSurveyDeterministic(t *testing.T) {
	_, _, a := surveyTiny(t, 3)
	_, _, b := surveyTiny(t, 3)
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	for as, ia := range a {
		if b[as] != ia {
			t.Fatalf("inference for AS%d differs: %+v vs %+v", as, ia, b[as])
		}
	}
}
