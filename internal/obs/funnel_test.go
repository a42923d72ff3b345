package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFunnelBalance(t *testing.T) {
	r := NewRegistry()
	f := r.NewFunnel("test.filter", "items entering vs. kept")
	drop := f.Reason("bad_input")
	f.In(100)
	f.Out(90)
	drop.Add(7)
	f.Drop("too_late", 3)

	s := f.Snapshot()
	if s.Name != "test.filter" || s.In != 100 || s.Out != 90 {
		t.Fatalf("bad snapshot: %+v", s)
	}
	if s.Dropped() != 10 {
		t.Fatalf("Dropped = %d, want 10", s.Dropped())
	}
	if !s.Balanced() {
		t.Fatalf("funnel should balance: %+v", s)
	}
	if s.DropN("bad_input") != 7 || s.DropN("too_late") != 3 || s.DropN("absent") != 0 {
		t.Fatalf("bad drop counts: %+v", s.Drops)
	}
	// Drops are sorted by reason so equal states render byte-identically.
	want := []FunnelDrop{{Reason: "bad_input", N: 7}, {Reason: "too_late", N: 3}}
	if !reflect.DeepEqual(s.Drops, want) {
		t.Fatalf("drops = %+v, want %+v", s.Drops, want)
	}

	f.Out(5) // 100 in, 95 out, 10 dropped: over-accounted
	if f.Snapshot().Balanced() {
		t.Fatal("unbalanced funnel reported as balanced")
	}
}

func TestFunnelNilSafety(t *testing.T) {
	var f *Funnel
	f.In(1)
	f.Out(1)
	f.Drop("x", 1)
	f.Reason("x").Inc()
	if f.Name() != "" {
		t.Fatal("nil funnel leaked a name")
	}
	if s := f.Snapshot(); s.In != 0 || s.Out != 0 || len(s.Drops) != 0 {
		t.Fatalf("nil funnel snapshot not zero: %+v", s)
	}
}

func TestFunnelRegistration(t *testing.T) {
	r := NewRegistry()
	f := r.NewFunnel("test.stage", "help text")
	if r.NewFunnel("test.stage", "other") != f {
		t.Fatal("re-registering returned a different funnel")
	}
	if f.Reason("why") != f.Reason("why") {
		t.Fatal("re-registering a reason returned a different counter")
	}
	r.NewFunnel("test.another", "")
	snaps := r.FunnelSnapshots()
	if len(snaps) != 2 || snaps[0].Name != "test.another" || snaps[1].Name != "test.stage" {
		t.Fatalf("FunnelSnapshots not sorted by name: %+v", snaps)
	}
	if snaps[1].Help != "help text" {
		t.Fatalf("help lost: %+v", snaps[1])
	}
}

func TestFunnelConcurrent(t *testing.T) {
	r := NewRegistry()
	f := r.NewFunnel("test.parallel", "")
	drop := f.Reason("lost")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.In(1)
				if i%10 == 0 {
					drop.Inc()
				} else {
					f.Out(1)
				}
			}
		}()
	}
	wg.Wait()
	s := f.Snapshot()
	if s.In != workers*per {
		t.Fatalf("in = %d, want %d", s.In, workers*per)
	}
	if !s.Balanced() {
		t.Fatalf("concurrent funnel unbalanced: %+v", s)
	}
}

func TestFunnelTable(t *testing.T) {
	r := NewRegistry()
	f := r.NewFunnel("ping.filter", "")
	f.In(10)
	f.Out(8)
	f.Drop("unresponsive", 2)
	r.NewFunnel("empty.stage", "")

	table := FunnelTable(r.FunnelSnapshots())
	for _, want := range []string{
		"| stage | in | kept | dropped | drop breakdown | balanced |",
		"| ping.filter | 10 | 8 | 2 | unresponsive=2 | ✅ |",
		"| empty.stage | 0 | 0 | 0 | — | ✅ |",
	} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}

	f.In(5) // unbalance
	if table := FunnelTable(r.FunnelSnapshots()); !strings.Contains(table, "❌") {
		t.Fatalf("unbalanced funnel not flagged:\n%s", table)
	}
}

func TestManifestIncludesFunnels(t *testing.T) {
	f := NewFunnel("test.manifest_funnel", "stage under test")
	f.In(3)
	f.Out(2)
	f.Drop("gone", 1)

	m := BuildManifest("test", 1, NewTracer(), time.Time{})
	var got *FunnelSnapshot
	for i := range m.Funnels {
		if m.Funnels[i].Name == "test.manifest_funnel" {
			got = &m.Funnels[i]
		}
	}
	if got == nil {
		t.Fatalf("funnel missing from manifest: %+v", m.Funnels)
	}
	if got.In < 3 || got.Out < 2 || got.DropN("gone") < 1 || got.Help != "stage under test" {
		t.Fatalf("bad funnel snapshot in manifest: %+v", got)
	}
}
