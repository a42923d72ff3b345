// World snapshot: persist a synthetic Internet as an OFNW binary snapshot,
// read it back, verify the restoration is faithful, and run an analysis
// against the restored world — the workflow for sharing reproducible worlds
// between machines.
//
//	go run ./examples/world-snapshot
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/offnetmap"
	"offnetrisk/internal/scan"
)

func main() {
	log.SetFlags(0)

	// Build and deploy a world.
	cfg := inet.TinyConfig(7)
	w := inet.Generate(cfg)
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated: %d ISPs, %d facilities, %d offnet servers\n",
		len(w.ISPs), len(w.Facilities), len(d.Servers))

	// Snapshot to disk, tagged with the config that generated the world.
	path := filepath.Join(os.TempDir(), "offnetrisk-world.ofnw")
	if err := inet.WriteWorldFile(path, w, cfg, ""); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes → %s\n", fi.Size(), path)

	// Read back and verify; a snapshot for a different config is rejected.
	restored, err := inet.ReadWorldFile(path, cfg, "")
	if err != nil {
		log.Fatal(err)
	}
	if len(restored.ISPs) != len(w.ISPs) || len(restored.Facilities) != len(w.Facilities) {
		log.Fatalf("restore mismatch: %d/%d ISPs, %d/%d facilities",
			len(restored.ISPs), len(w.ISPs), len(restored.Facilities), len(w.Facilities))
	}
	fmt.Println("restored: all ISPs, facilities, and exchanges intact")

	// The restored world supports the same pipelines: run the offnet
	// inference against a scan of the ORIGINAL deployment using the
	// RESTORED world's IP-to-AS mapping — they must agree exactly.
	records, err := scan.Simulate(d, scan.DefaultConfig(7))
	if err != nil {
		log.Fatal(err)
	}
	orig := offnetmap.Infer(w, records, offnetmap.Rules2023())
	again := offnetmap.Infer(restored, records, offnetmap.Rules2023())
	fmt.Printf("inference on original world: %d offnets; on restored world: %d offnets\n",
		len(orig.Offnets), len(again.Offnets))
	if len(orig.Offnets) != len(again.Offnets) {
		log.Fatal("restored world produced different inference")
	}
	fmt.Println("snapshot round trip verified ✔")
	_ = os.Remove(path)
}
