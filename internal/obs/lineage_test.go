package obs

import (
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestLineageNilSafety: every method on a nil recorder must no-op — the
// default-off contract call sites rely on.
func TestLineageNilSafety(t *testing.T) {
	var r *LineageRecorder
	r.CountIn("s", 1)
	r.CountKept("s", 1)
	r.CountDrop("s", "reason", 1)
	r.Record("s", "g", "subj", LineageKept, "reason", func() []LineageKV {
		t.Fatal("evidence builder ran on a nil recorder")
		return nil
	})
	if got := r.Digest(); got != "" {
		t.Fatalf("nil digest = %q, want empty", got)
	}
	if got := r.Records(); got != nil {
		t.Fatalf("nil records = %v, want nil", got)
	}
	if got := r.StageCounts(); got != nil {
		t.Fatalf("nil stage counts = %v, want nil", got)
	}
}

// TestLineageAdmissionOrderInvariance: the retained sample is a bounded
// min-set over the offered identities, so any arrival order — any worker
// interleaving — admits the same records and yields the same digest.
func TestLineageAdmissionOrderInvariance(t *testing.T) {
	type offer struct{ group, subject, reason string }
	var offers []offer
	for g := 0; g < 3; g++ {
		for s := 0; s < 40; s++ {
			offers = append(offers, offer{
				group:   "isp=" + string(rune('A'+g)),
				subject: "10.0.0." + string(rune('0'+s%10)) + string(rune('0'+s/10)),
				reason:  "r" + string(rune('0'+s%3)),
			})
		}
	}
	run := func(perm []int) *LineageRecorder {
		r := NewLineageRecorder()
		for _, i := range perm {
			o := offers[i]
			r.Record("stage", o.group, o.subject, LineageKept, o.reason, func() []LineageKV {
				return []LineageKV{{K: "subject", V: o.subject}}
			})
		}
		return r
	}
	base := make([]int, len(offers))
	for i := range base {
		base[i] = i
	}
	want := run(base)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(offers))
		got := run(perm)
		if got.Digest() != want.Digest() {
			t.Fatalf("trial %d: digest varies with arrival order", trial)
		}
		if !reflect.DeepEqual(got.Records(), want.Records()) {
			t.Fatalf("trial %d: records vary with arrival order", trial)
		}
	}
	// The default cap bounds each (stage, group)'s sample.
	perGroup := make(map[string]int)
	for _, rec := range want.Records() {
		perGroup[rec.Group]++
	}
	for g, n := range perGroup {
		if n > DefaultLineageCap {
			t.Fatalf("group %q retained %d records, cap is %d", g, n, DefaultLineageCap)
		}
	}
}

// TestLineageDedupe: identically keyed duplicates collapse to one record and
// never double-build evidence once admitted.
func TestLineageDedupe(t *testing.T) {
	r := NewLineageRecorder()
	builds := 0
	for i := 0; i < 5; i++ {
		r.Record("s", "g", "subj", LineageKept, "reason", func() []LineageKV {
			builds++
			return []LineageKV{{K: "k", V: "v"}}
		})
	}
	if got := len(r.Records()); got != 1 {
		t.Fatalf("duplicates produced %d records, want 1", got)
	}
	if builds != 1 {
		t.Fatalf("evidence built %d times for one identity, want 1", builds)
	}
}

// TestLineageSetCap: a raised cap admits more records per group.
func TestLineageSetCap(t *testing.T) {
	r := NewLineageRecorder()
	r.SetCap("s", 5)
	for i := 0; i < 10; i++ {
		subj := "subj" + string(rune('0'+i))
		r.Record("s", "g", subj, LineageKept, "", nil)
	}
	if got := len(r.Records()); got != 5 {
		t.Fatalf("cap 5 retained %d records", got)
	}
}

// TestLineageStageCounts: counts reconcile and render sorted.
func TestLineageStageCounts(t *testing.T) {
	r := NewLineageRecorder()
	r.CountIn("b.stage", 10)
	r.CountKept("b.stage", 7)
	r.CountDrop("b.stage", "x", 2)
	r.CountDrop("b.stage", "a", 1)
	r.CountIn("a.stage", 1)
	r.CountKept("a.stage", 1)
	sc := r.StageCounts()
	if len(sc) != 2 || sc[0].Stage != "a.stage" || sc[1].Stage != "b.stage" {
		t.Fatalf("stage counts unsorted or wrong: %+v", sc)
	}
	b := sc[1]
	if !b.Balanced() || b.Dropped() != 3 || b.DropN("a") != 1 || b.DropN("x") != 2 {
		t.Fatalf("b.stage accounting wrong: %+v", b)
	}
	if b.Drops[0].Reason != "a" {
		t.Fatalf("drops unsorted: %+v", b.Drops)
	}
}

// TestLineageJSONLRoundTrip: write → read preserves records and verifies the
// digest; tampering with any line is detected.
func TestLineageJSONLRoundTrip(t *testing.T) {
	r := NewLineageRecorder()
	r.CountIn("s", 2)
	r.CountKept("s", 1)
	r.CountDrop("s", "bad", 1)
	r.Record("s", "g", "10.0.0.1", LineageKept, "ok", func() []LineageKV {
		return []LineageKV{{K: "why", V: "matched"}}
	})
	r.Record("s", "g", "10.0.0.2", LineageDropped, "bad", nil)

	path := filepath.Join(t.TempDir(), "lineage.jsonl")
	if err := WriteLineageFile(path, r); err != nil {
		t.Fatal(err)
	}
	f, err := ReadLineageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Records, r.Records()) {
		t.Fatalf("round trip changed records:\n%+v\nvs\n%+v", f.Records, r.Records())
	}
	if f.Summary.Digest != r.Digest() {
		t.Fatalf("summary digest %q != recorder digest %q", f.Summary.Digest, r.Digest())
	}
	if len(f.Summary.Stages) != 1 || !f.Summary.Stages[0].Balanced() {
		t.Fatalf("summary stages wrong: %+v", f.Summary.Stages)
	}

	// Flip one evidence byte: the digest check must fail loudly.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), "matched", "matchee", 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLineageFile(path); err == nil {
		t.Fatal("tampered lineage file read back without error")
	}

	// A capture missing its summary line is an error, not a silent success.
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	noSummary := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if err := os.WriteFile(path, []byte(noSummary), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLineageFile(path); err == nil {
		t.Fatal("summary-less lineage file read back without error")
	}
}

// TestLineageManifestDiff: runsdiff treats lineage digests and per-stage
// counts as determinism-relevant drift.
func TestLineageManifestDiff(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			LineageDigest: "aaaa",
			Lineage: []LineageStageCount{{
				Stage: "s", In: 10, Kept: 8,
				Drops: []FunnelDrop{{Reason: "r", N: 2}},
			}},
		}
	}
	if res := CompareManifests(base(), base(), DiffOptions{}); res.HasDrift() {
		t.Fatalf("equal lineage reported drift: %v", res.Drift)
	}
	digest := base()
	digest.LineageDigest = "bbbb"
	if res := CompareManifests(base(), digest, DiffOptions{}); !res.HasDrift() {
		t.Fatal("digest mismatch not reported as drift")
	}
	counts := base()
	counts.Lineage[0].Drops[0].N = 3
	if res := CompareManifests(base(), counts, DiffOptions{}); !res.HasDrift() {
		t.Fatal("per-reason count mismatch not reported as drift")
	}
}

// TestLineageManifestBuild: an active recorder lands in the manifest; none
// leaves the fields empty (so lineage-off manifests stay golden-identical).
func TestLineageManifestBuild(t *testing.T) {
	SetLineage(nil)
	m := BuildManifest("test", 42, NewTracer(), time.Now())
	if m.LineageDigest != "" || m.Lineage != nil {
		t.Fatalf("lineage-off manifest carries lineage fields: %q %v", m.LineageDigest, m.Lineage)
	}
	r := NewLineageRecorder()
	r.CountIn("s", 1)
	r.CountKept("s", 1)
	SetLineage(r)
	defer SetLineage(nil)
	m = BuildManifest("test", 42, NewTracer(), time.Now())
	if m.LineageDigest != r.Digest() || len(m.Lineage) != 1 {
		t.Fatalf("lineage-on manifest missing lineage: %q %v", m.LineageDigest, m.Lineage)
	}
}

// TestLineageDebugPage: the /debug/obs lineage section renders and escapes
// caller-supplied strings.
func TestLineageDebugPage(t *testing.T) {
	r := NewLineageRecorder()
	r.CountIn("s", 1)
	r.CountKept("s", 1)
	r.Record("s", "g", `<script>alert(1)</script>`, LineageKept, "ok", nil)
	SetLineage(r)
	defer SetLineage(nil)

	rec := httptest.NewRecorder()
	writeObsPage(rec, NewTracer(), time.Now())
	body := rec.Body.String()
	if !strings.Contains(body, "<h2>lineage</h2>") {
		t.Fatal("lineage section missing from /debug/obs")
	}
	if strings.Contains(body, "<script>alert(1)</script>") {
		t.Fatal("lineage subject rendered unescaped")
	}
	if !strings.Contains(body, "&lt;script&gt;") {
		t.Fatal("escaped lineage subject missing from page")
	}
}

// TestLineageMarkdown: the report appendix renders the accounting table and
// a bounded sample per stage.
func TestLineageMarkdown(t *testing.T) {
	if LineageMarkdown(nil, 2) != "" {
		t.Fatal("nil recorder rendered a non-empty appendix")
	}
	r := NewLineageRecorder()
	r.CountIn("s", 3)
	r.CountKept("s", 2)
	r.CountDrop("s", "bad", 1)
	for i := 0; i < 3; i++ {
		subj := "10.0.0." + string(rune('1'+i))
		r.Record("s", "g"+string(rune('0'+i)), subj, LineageKept, "ok", nil)
	}
	md := LineageMarkdown(r, 1)
	if !strings.Contains(md, "| s | 3 | 2 | 1 | bad=1 |") {
		t.Fatalf("accounting row missing:\n%s", md)
	}
	if got := strings.Count(md, "- `10.0.0."); got != 1 {
		t.Fatalf("sample not bounded to 1 per stage (got %d):\n%s", got, md)
	}
}

// TestLazyRegistration: the shared lazy helper registers exactly once, on
// first use, and is idempotent against the registry.
func TestLazyRegistration(t *testing.T) {
	lc := NewLazyCounter("lazytest.counter", "test")
	c1, c2 := lc.Get(), lc.Get()
	if c1 == nil || c1 != c2 {
		t.Fatal("LazyCounter.Get not stable")
	}
	c1.Inc()
	if got := NewCounter("lazytest.counter", "test"); got != c1 {
		t.Fatal("lazy counter not registered in the default registry")
	}
	lf := NewLazyFunnel("lazytest.funnel", "test")
	f1, f2 := lf.Get(), lf.Get()
	if f1 == nil || f1 != f2 {
		t.Fatal("LazyFunnel.Get not stable")
	}
	f1.In(1)
	if got := NewFunnel("lazytest.funnel", "test"); got != f1 {
		t.Fatal("lazy funnel not registered in the default registry")
	}
}
