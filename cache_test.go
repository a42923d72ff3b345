package offnetrisk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/coloc"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/optics"
	sweeppkg "offnetrisk/internal/sweep"
	"offnetrisk/internal/traffic"
)

// counterValues reads the named counters from the default registry.
func counterValues(names ...string) map[string]int64 {
	snap := obs.Default.Snapshot()
	out := make(map[string]int64, len(names))
	for _, n := range names {
		out[n] = int64(snap[n].Value)
	}
	return out
}

// delta subtracts two counterValues readings.
func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for n, v := range after {
		out[n] = v - before[n]
	}
	return out
}

// TestConformanceDoesNoExtraWork is the zero-extra-work guard: after the
// seven experiments have run, Conformance scores their cached results and
// measures nothing. Its only own work is the two tiny-world sensitivity
// sweeps, so every work counter moves by exactly what those sweeps do when
// run on their own — and the measurement counters do not move at all.
func TestConformanceDoesNoExtraWork(t *testing.T) {
	measurement := []string{"ping.rtts_measured", "optics.runs_total", "tracert.traces_run", "scan.records_simulated"}
	model := []string{"cascade.scenarios_simulated", "capacity.models_built"}
	all := append(append([]string(nil), measurement...), model...)

	p := NewPipeline(42, ScaleTiny)
	runAll(t, p)
	before := counterValues(all...)
	if _, err := p.ConformanceContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := delta(before, counterValues(all...))

	before = counterValues(all...)
	if _, err := sweeppkg.ColocationPropensity(context.Background(), p.Scenario(), p.Seed, propensityProbe); err != nil {
		t.Fatal(err)
	}
	if _, err := sweeppkg.SharedHeadroom(context.Background(), p.Scenario(), p.Seed, headroomProbe); err != nil {
		t.Fatal(err)
	}
	sweeps := delta(before, counterValues(all...))

	for _, n := range measurement {
		if got[n] != 0 {
			t.Errorf("Conformance moved %s by %d after every experiment had run", n, got[n])
		}
	}
	for _, n := range model {
		if got[n] != sweeps[n] {
			t.Errorf("Conformance moved %s by %d; its sensitivity sweeps alone move it by %d", n, got[n], sweeps[n])
		}
	}

	// Every experiment is cached now, so the sweeps are the only work a
	// cancelled suite can reach: it must fail with the ctx error, not drop
	// the two Sweep checks and report success.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if suite, err := p.ConformanceContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Conformance over cached results = (%v, %v), want context.Canceled", suite, err)
	}
}

// TestColocationSingleflight calls ColocationContext from many goroutines
// at once: they share one computation and one result pointer. Run under
// -race this also proves the cache's synchronization.
func TestColocationSingleflight(t *testing.T) {
	counters := []string{"ping.rtts_measured", "optics.runs_total"}

	before := counterValues(counters...)
	if _, err := NewPipeline(42, ScaleTiny).ColocationContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	once := delta(before, counterValues(counters...))

	const n = 8
	p := NewPipeline(42, ScaleTiny)
	results := make([]*ColocationResult, n)
	errs := make([]error, n)
	before = counterValues(counters...)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.ColocationContext(context.Background())
		}(i)
	}
	wg.Wait()
	got := delta(before, counterValues(counters...))

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got its own result; every caller must share one", i)
		}
	}
	if !reflect.DeepEqual(got, once) {
		t.Fatalf("%d concurrent callers did work %v; one computation does %v", n, got, once)
	}
}

// TestCancelledCallIsNotCached: a call that fails on its context leaves no
// entry behind, so the next call with a live context computes and succeeds.
func TestCancelledCallIsNotCached(t *testing.T) {
	p := NewPipeline(42, ScaleTiny)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ColocationContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled colocation returned %v, want context.Canceled", err)
	}
	if _, err := p.Table1Context(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Table1 returned %v, want context.Canceled", err)
	}
	col, err := p.ColocationContext(context.Background())
	if err != nil || col == nil {
		t.Fatalf("colocation after a cancelled call: %v", err)
	}
	if t1, err := p.Table1Context(context.Background()); err != nil || t1 == nil {
		t.Fatalf("Table1 after a cancelled call: %v", err)
	}
	if again, _ := p.ColocationContext(context.Background()); again != col {
		t.Fatal("the successful result was not cached")
	}
}

// TestCachedErrorSemantics pins the helper's contract on failures: an error
// is shared with the callers waiting on it but not cached, and a waiter
// whose leader failed on its own context computes for itself.
func TestCachedErrorSemantics(t *testing.T) {
	p := NewPipeline(1, ScaleTiny)
	boom := errors.New("boom")
	var calls atomic.Int32
	failing := func() (int, error) { calls.Add(1); return 0, boom }
	if _, err := cached(p, "k", failing); err != boom {
		t.Fatalf("first call: %v, want boom", err)
	}
	if _, err := cached(p, "k", failing); err != boom || calls.Load() != 2 {
		t.Fatalf("a failed result was cached (calls=%d, err=%v)", calls.Load(), err)
	}
	if v, err := cached(p, "k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("got %d, %v after failures; want 7", v, err)
	}
	if v, _ := cached(p, "k", func() (int, error) { return 8, nil }); v != 7 {
		t.Fatalf("got %d, want the cached 7", v)
	}

	// A leader cancelled mid-flight: its waiter retries with its own fn.
	started, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := cached(p, "ctx", func() (int, error) {
			close(started)
			<-release
			return 0, context.Canceled
		})
		leaderErr <- err
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		v, _ := cached(p, "ctx", func() (int, error) { return 42, nil })
		waiter <- v
	}()
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want context.Canceled", err)
	}
	if v := <-waiter; v != 42 {
		t.Fatalf("waiter got %d after its leader's cancellation, want its own 42", v)
	}

	// A leader that panics still releases its waiter: the waiter gets
	// errPanicked, or, arriving after the failed flight left the cache,
	// computes for itself.
	started, release = make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { leaderErr <- fmt.Errorf("recovered %v", recover()) }()
		cached(p, "panic", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, err := cached(p, "panic", func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	close(release)
	<-leaderErr
	if err := <-waiterErr; err != nil && !errors.Is(err, errPanicked) {
		t.Fatalf("waiter of a panicked flight: %v, want errPanicked or its own result", err)
	}
}

// reachabilityReference is the reachability plot as cmd/reproduce used to
// compute it: a second ping campaign, then one OPTICS run over the busiest
// ISP's distance matrix. ColocationResult.Reachability must equal it bit
// for bit.
func reachabilityReference(ctx context.Context, p *Pipeline) ([]float64, error) {
	_, d, err := p.World2023()
	if err != nil {
		return nil, err
	}
	sp := p.Scenario()
	mcfg := mlab.ConfigFromScenario(sp, p.Seed)
	mcfg.Workers = p.Workers
	mcfg.Chaos = p.Chaos
	c, err := mlab.MeasureContext(ctx, d, mlab.Sites(sp.Measurement.PingSites, p.Seed), mcfg)
	if err != nil {
		return nil, err
	}
	var bestAS inet.ASN
	best := 0
	for as, ms := range c.ByISP {
		if len(ms) > best || (len(ms) == best && best > 0 && as < bestAS) {
			best, bestAS = len(ms), as
		}
	}
	if best < 2 {
		return nil, nil
	}
	ms := c.ByISP[bestAS]
	dm, err := coloc.DistanceMatrixContext(ctx, ms, c.GoodSites[bestAS], coloc.DiscrepancyExclusion, p.Workers)
	if err != nil {
		return nil, err
	}
	return optics.Run(len(ms), dm.At, 2, math.Inf(1)).Reach, nil
}

func TestColocationReachabilityMatchesRecomputation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPipeline(42, ScaleTiny)
		p.Workers = workers
		col, err := p.ColocationContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := reachabilityReference(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(col.Reachability) != len(want) {
			t.Fatalf("workers=%d: reachability has %d points, reference %d", workers, len(col.Reachability), len(want))
		}
		for i := range want {
			if math.Float64bits(col.Reachability[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: point %d is %v, reference %v", workers, i, col.Reachability[i], want[i])
			}
		}
	}
}

// TestSharedCapacityModelIsReadOnly: every study serves traffic on the one
// 2023 capacity model; after all of them have run, the model serves exactly
// what it served when fresh.
func TestSharedCapacityModelIsReadOnly(t *testing.T) {
	p := NewPipeline(42, ScaleTiny)
	d, m, err := p.capacityModel("test")
	if err != nil {
		t.Fatal(err)
	}
	failed := make(map[inet.FacilityID]bool)
	for _, s := range d.Servers {
		if len(failed) == 3 {
			break
		}
		failed[s.Facility] = true
	}
	surge := map[traffic.HG]float64{traffic.Netflix: 1.58}
	serve := func() [3][]capacity.Flow {
		return [3][]capacity.Flow{
			m.Serve(1, nil, nil),
			m.ServeBurst(1.3, surge, failed),
			m.ServeHour(19, nil, failed, false),
		}
	}
	fresh := serve()

	runAll(t, p)
	if _, err := p.PerfectStormContext(context.Background(), 3, 1.5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TemporalReplayContext(context.Background(), 24, flashCrowdSchedule(t), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ConformanceContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, m2, _ := p.capacityModel("test"); m2 != m {
		t.Fatal("studies did not share the pipeline's capacity model")
	}
	if !reflect.DeepEqual(serve(), fresh) {
		t.Fatal("the shared capacity model serves differently after the studies ran")
	}
}
