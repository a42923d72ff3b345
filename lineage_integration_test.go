package offnetrisk

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/obs"
)

// lineageStages is every instrumented classification site, in canonical
// (sorted) order — the stage set a full tiny run must produce.
var lineageStages = []string{
	"cascade.mitigation",
	"coloc.cluster",
	"coloc.pairs",
	"offnetmap.classify",
	"ping.filter",
	"ping.isp_gate",
	"rdns.metro",
	"steer.mapping",
	"tracert.hops",
}

// lineageRun executes every experiment with a fresh registry and a fresh
// recorder, returning the recorder, the rendered experiment output, and the
// funnel snapshots of that run.
func lineageRun(t *testing.T, workers, shards int, profile string) (*obs.LineageRecorder, string, []obs.FunnelSnapshot) {
	t.Helper()
	obs.Default.Reset()
	lr := obs.NewLineageRecorder()
	obs.SetLineage(lr)
	defer obs.SetLineage(nil)
	p := tinyPipeline(42)
	p.Workers = workers
	p.Shards = shards
	if profile != "" {
		prof, err := chaos.ParseProfile(profile)
		if err != nil {
			t.Fatal(err)
		}
		p.Chaos = chaos.New(prof, 7)
	}
	rendered := runAll(t, p)
	return lr, rendered, obs.Default.FunnelSnapshots()
}

// TestLineageReconciliation is the satellite guard: per-stage lineage counts
// must balance (in == kept + Σ drops) and must equal the corresponding
// funnel's accounting reason for reason — any site that drops data without
// recording why fails here, naming the stage.
func TestLineageReconciliation(t *testing.T) {
	lr, _, funnels := lineageRun(t, 0, 0, "")
	byName := make(map[string]obs.FunnelSnapshot, len(funnels))
	for _, f := range funnels {
		byName[f.Name] = f
	}

	stages := lr.StageCounts()
	var got []string
	for _, s := range stages {
		got = append(got, s.Stage)
	}
	if !reflect.DeepEqual(got, lineageStages) {
		t.Fatalf("instrumented stage set = %v, want %v", got, lineageStages)
	}

	for _, s := range stages {
		if !s.Balanced() {
			t.Errorf("stage %s unbalanced: in=%d kept=%d dropped=%d", s.Stage, s.In, s.Kept, s.Dropped())
		}
		f, ok := byName[s.Stage]
		if !ok {
			t.Errorf("stage %s has no matching funnel", s.Stage)
			continue
		}
		if f.In != s.In || f.Out != s.Kept {
			t.Errorf("stage %s: lineage in/kept=%d/%d but funnel in/out=%d/%d",
				s.Stage, s.In, s.Kept, f.In, f.Out)
		}
		reasons := make(map[string]bool)
		for _, d := range s.Drops {
			reasons[d.Reason] = true
		}
		for _, d := range f.Drops {
			reasons[d.Reason] = true
		}
		for r := range reasons {
			if s.DropN(r) != f.DropN(r) {
				t.Errorf("stage %s reason %s: lineage=%d funnel=%d",
					s.Stage, r, s.DropN(r), f.DropN(r))
			}
		}
	}
}

// TestLineageDigestDeterminism: the digest — and the full record set behind
// it — is byte-identical across worker and shard counts, because sampling is
// hash-admitted, never arrival-ordered.
func TestLineageDigestDeterminism(t *testing.T) {
	base, rendered, _ := lineageRun(t, 1, 0, "")
	digest := base.Digest()
	if digest == "" || len(base.Records()) == 0 {
		t.Fatal("baseline run recorded no lineage")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		lr, r, _ := lineageRun(t, workers, 0, "")
		if lr.Digest() != digest {
			t.Fatalf("Workers=%d lineage digest diverged", workers)
		}
		if !reflect.DeepEqual(lr.Records(), base.Records()) {
			t.Fatalf("Workers=%d lineage records diverged", workers)
		}
		if r != rendered {
			t.Fatalf("Workers=%d experiment output diverged under lineage", workers)
		}
	}
	for _, shards := range []int{1, 4} {
		lr, _, _ := lineageRun(t, 0, shards, "")
		if lr.Digest() != digest {
			t.Fatalf("Shards=%d lineage digest diverged", shards)
		}
	}
}

// TestLineageChaosDeterminism: injected faults surface as chaos_* lineage
// records, and the capture stays byte-identical across worker counts at a
// fixed chaos seed.
func TestLineageChaosDeterminism(t *testing.T) {
	base, _, _ := lineageRun(t, 1, 0, "heavy")
	digest := base.Digest()
	var chaosRecords int
	for _, rec := range base.Records() {
		if strings.HasPrefix(rec.ReasonCode, "chaos_") {
			chaosRecords++
		}
	}
	if chaosRecords == 0 {
		t.Fatal("heavy chaos run produced no chaos_* lineage records")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		lr, _, _ := lineageRun(t, workers, 0, "heavy")
		if lr.Digest() != digest {
			t.Fatalf("Workers=%d chaos lineage digest diverged", workers)
		}
	}
}

// TestLineageOffTransparency: recording must not change a byte of any
// experiment's output — lineage observes classification, it never
// participates in it.
func TestLineageOffTransparency(t *testing.T) {
	obs.SetLineage(nil)
	obs.Default.Reset()
	plain := runAll(t, tinyPipeline(42))
	lr, withLineage, _ := lineageRun(t, 0, 0, "")
	if plain != withLineage {
		t.Fatal("enabling lineage changed experiment output")
	}
	if len(lr.Records()) == 0 {
		t.Fatal("lineage-on run retained no records")
	}
}
