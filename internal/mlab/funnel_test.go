package mlab

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scenario"
)

// funnelState serializes the shared registry's funnel accounting;
// byte-identical serializations mean identical accounting.
func funnelState(t *testing.T) []byte {
	t.Helper()
	data, err := json.Marshal(obs.Default.FunnelSnapshots())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCampaignFunnelDeterministicAcrossWorkers is the worker-sweep guard:
// the funnel is fed from the campaign's serial merge, so its snapshot must
// be byte-identical at any worker count.
func TestCampaignFunnelDeterministicAcrossWorkers(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(7))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	sites := Sites(163, 7)

	var ref []byte
	refWorkers := 0
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		obs.Default.Reset()
		cfg := ConfigFromScenario(scenario.Default(), 7)
		cfg.Workers = workers
		if _, err := MeasureContext(context.Background(), d, sites, cfg); err != nil {
			t.Fatal(err)
		}
		state := funnelState(t)
		if ref == nil {
			ref, refWorkers = state, workers
			continue
		}
		if !bytes.Equal(ref, state) {
			t.Fatalf("funnel snapshot differs between workers=%d and workers=%d:\n%s\nvs\n%s",
				refWorkers, workers, ref, state)
		}
	}
}

// TestCampaignFunnelReconcilesWithCounters pins the acceptance criterion:
// the ping.filter and ping.isp_gate rows reconcile exactly with the
// pre-existing campaign counters and the Campaign's own accounting.
func TestCampaignFunnelReconcilesWithCounters(t *testing.T) {
	obs.Default.Reset()
	d, c := campaign(t, 3)

	var filter, gate obs.FunnelSnapshot
	for _, s := range obs.Default.FunnelSnapshots() {
		switch s.Name {
		case "ping.filter":
			filter = s
		case "ping.isp_gate":
			gate = s
		}
	}

	if !filter.Balanced() || !gate.Balanced() {
		t.Fatalf("funnels unbalanced: filter=%+v gate=%+v", filter, gate)
	}
	if filter.In != int64(len(d.Servers)) {
		t.Fatalf("filter.In = %d, want every server (%d)", filter.In, len(d.Servers))
	}
	if got, want := filter.DropN("unresponsive"), mUnresponsive.Value(); got != want {
		t.Fatalf("filter unresponsive = %d, counter ping.targets_unresponsive = %d", got, want)
	}
	if got, want := filter.DropN("sol_violation"), mImpossible.Value(); got != want {
		t.Fatalf("filter sol_violation = %d, counter ping.targets_impossible = %d", got, want)
	}
	if filter.Out != int64(c.TotalMeasured) {
		t.Fatalf("filter.Out = %d, campaign measured %d", filter.Out, c.TotalMeasured)
	}
	if int(filter.DropN("unresponsive")) != c.Unresponsive || int(filter.DropN("sol_violation")) != c.Impossible {
		t.Fatalf("funnel drops (%d, %d) disagree with campaign accounting (%d, %d)",
			filter.DropN("unresponsive"), filter.DropN("sol_violation"), c.Unresponsive, c.Impossible)
	}

	if got, want := gate.DropN("lt_100_vps"), mISPsGated.Value(); got != want {
		t.Fatalf("gate lt_100_vps = %d, counter ping.isps_gated = %d", got, want)
	}
	if gate.Out != int64(c.MeasuredISPs) || int(gate.DropN("lt_100_vps")) != c.GatedISPs {
		t.Fatalf("gate funnel (%+v) disagrees with campaign (measured %d, gated %d)",
			gate, c.MeasuredISPs, c.GatedISPs)
	}
}
