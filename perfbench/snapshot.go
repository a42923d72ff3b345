package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
)

// snapshotReads is how many times one job streams the snapshot back.
const snapshotReads = 5

// startSnapshot drives the huge tier through the inet layer in both
// directions: generate the world with the sharded builder, write it as an
// OFNW snapshot, and stream it back several times. Each job's check writes
// the last streamed world again and compares the bytes with the first write.
//
// Traced runs also attempt one hypergiant.Deploy on the streamed world with
// the huge scenario's deploy config. It fails today ("IXP 13 fabric full"),
// a known program defect; the attempt is reported in the per-layer metrics
// (hypergiant.huge_deploy_errors) instead of as a failed operation, and it
// stays outside every end-to-end metric so that fixing it moves no timing.
func startSnapshot(e *env) (func(int64) *job, func() map[string]float64, error) {
	sp, ok := scenario.Lookup("huge")
	if !ok {
		return nil, nil, fmt.Errorf("scenario registry has no huge tier")
	}
	run := func(seed int64) *job { return snapshotJob(e, sp, seed) }
	final := func() map[string]float64 { return map[string]float64{"peak_rss_mb": peakRSSMB()} }
	return run, final, nil
}

func snapshotJob(e *env, sp *scenario.Spec, seed int64) *job {
	j := newJob()
	jt := newJobTrace(e, "world-snapshot")
	before := counters()
	hash := sp.Hash()
	cfg := inet.ConfigFromScenario(sp, seed)
	cfg.GenWorkers = e.workers

	cpu0 := cpuSeconds()
	t0 := time.Now()
	var w *inet.World
	gen, _ := jt.step("inet.generate", func(context.Context) error { w = inet.Generate(cfg); return nil })
	var first bytes.Buffer
	write, err := jt.step("inet.write_world", func(context.Context) error { return inet.WriteWorld(&first, w, cfg, hash) })
	if err != nil {
		j.err = err
		return j
	}
	var reads []float64
	var streamed *inet.World
	for r := 0; r < snapshotReads; r++ {
		d, err := jt.step("inet.read_world", func(context.Context) (err error) {
			streamed, err = inet.ReadWorld(bytes.NewReader(first.Bytes()), cfg, hash)
			return err
		})
		if err != nil {
			j.err = err
			return j
		}
		reads = append(reads, d)
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0

	var again bytes.Buffer
	if err := inet.WriteWorld(&again, streamed, cfg, hash); err != nil {
		j.err = fmt.Errorf("rewrite streamed world: %w", err)
		return j
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		j.err = fmt.Errorf("rewriting the streamed world gave %d bytes that differ from the first write's %d", again.Len(), first.Len())
		return j
	}

	j.e2e["wall_s"] = []float64{wall}
	j.e2e["cpu_s"] = []float64{cpu}
	j.e2e["setup_s"] = []float64{gen}
	j.digest = fmt.Sprintf("%x", sha256.Sum256(first.Bytes()))
	j.counts = counterDelta(before, counters())
	j.counts["inet.snapshot_bytes"] = int64(first.Len())
	j.counts["inet.entities"] = int64(entities(w))

	if !e.traced {
		return j
	}
	var deployErrs float64
	jt.step("hypergiant.deploy", func(context.Context) error {
		_, err := hypergiant.Deploy(streamed, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(sp, seed))
		if err != nil {
			deployErrs = 1
			fmt.Fprintf(os.Stderr, "perfbench: known defect: huge-tier deploy failed: %v\n", err)
		}
		return nil
	})
	spans, _ := jt.finish()
	mb := float64(first.Len()) / 1e6
	n := float64(entities(w))
	readMS := make([]float64, len(reads))
	readMBs := make([]float64, len(reads))
	for i, r := range reads {
		readMS[i] = 1000 * r
		readMBs[i] = mb / r
	}
	j.layer["inet.read_world_ms"] = readMS
	j.layer["snapshot_read_mb_s"] = readMBs
	for k, v := range map[string]float64{
		"inet.generate_ms":              spans["inet.generate"].ms,
		"world.build_ms":                spans["inet.generate"].ms,
		"inet.write_world_ms":           spans["inet.write_world"].ms,
		"snapshot_write_mb_s":           mb / write,
		"inet.allocs_per_entity":        float64(spans["inet.generate"].mallocs) / n,
		"inet.read_allocs_per_entity":   float64(spans["inet.read_world"].mallocs) / snapshotReads / n,
		"inet.entities":                 n,
		"inet.snapshot_bytes":           float64(first.Len()),
		"inet.worlds_generated":         float64(j.counts["inet.worlds_generated"]),
		"hypergiant.deploy_ms":          spans["hypergiant.deploy"].ms,
		"hypergiant.huge_deploy_errors": deployErrs,
	} {
		j.layer[k] = []float64{v}
	}
	return j
}
