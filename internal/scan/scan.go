// Package scan produces Censys-style TLS scan records over the synthetic
// Internet: one record per host listening on TCP/443, carrying the
// certificate fields the offnet methodology inspects. It also contains a
// real-socket scanner (netscan.go) used in integration tests to exercise the
// same pipeline against live TLS listeners.
package scan

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"offnetrisk/internal/cert"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
)

var mRecordsSimulated = obs.NewCounter("scan.records_simulated",
	"TLS scan records produced over the synthetic Internet")

// Record is one scan observation: an address presenting a certificate on
// port 443.
type Record struct {
	Addr netaddr.Addr
	Cert cert.Certificate
}

// Config controls the synthetic scan. Its values come from a scenario spec
// (ConfigFromScenario).
type Config struct {
	// Seed drives the background-host draw.
	Seed int64
	// BackgroundPerISP is the expected number of unrelated TLS hosts per
	// access ISP (enterprise servers, local CDNs, decoys). These exercise
	// the methodology's false-positive resistance.
	BackgroundPerISP float64
	// OnnetPerHG is the number of onnet (hypergiant-operated, in the
	// hypergiant's own AS) servers per hypergiant. The methodology must not
	// count these as offnets.
	OnnetPerHG int
}

// Simulate scans the deployed world: every offnet server, every hypergiant
// onnet server, and a population of background TLS hosts. Records are
// returned in ascending address order, as an Internet-wide scan would
// enumerate them.
func Simulate(d *hypergiant.Deployment, cfg Config) ([]Record, error) {
	r := rngutil.New(cfg.Seed ^ 0x5caff01d)
	w := d.World
	var out []Record

	// Offnet servers: the scan sees every listener regardless of whether it
	// answers pings later.
	for _, s := range d.Servers {
		out = append(out, Record{Addr: s.Addr, Cert: s.Cert})
	}

	// Onnet servers inside each hypergiant's own AS.
	profiles := hypergiant.Profiles()
	for hg, as := range d.ContentAS {
		prof := profiles[hg]
		for i := 0; i < cfg.OnnetPerHG; i++ {
			addr, err := w.AllocHostIn(as)
			if err != nil {
				return nil, fmt.Errorf("scan: onnet alloc for %s: %w", hg, err)
			}
			domain := prof.OnnetDomains[i%len(prof.OnnetDomains)]
			out = append(out, Record{Addr: addr, Cert: cert.Certificate{
				SubjectOrg: prof.OnnetOrg,
				SubjectCN:  domain,
				DNSNames:   []string{domain},
				Issuer:     "DigiCert Inc",
			}})
		}
	}

	// Background hosts: unrelated TLS services in access ISPs, including
	// deliberately confusable certificates the methodology must reject.
	for _, isp := range w.AccessISPs() {
		n := poisson(r, cfg.BackgroundPerISP)
		for i := 0; i < n; i++ {
			addr, err := w.AllocHostIn(isp.ASN)
			if err != nil {
				break // ISP space exhausted; scan the rest
			}
			out = append(out, Record{Addr: addr, Cert: backgroundCert(r, isp, i)})
		}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	mRecordsSimulated.Add(int64(len(out)))
	return out, nil
}

// backgroundCert fabricates a non-hypergiant certificate. A slice of them are
// decoys: names or organizations that look hypergiant-adjacent but must not
// match the methodology's rules.
func backgroundCert(r *rand.Rand, isp *inet.ISP, i int) cert.Certificate {
	switch r.Intn(8) {
	case 0:
		// Decoy: bare suffix — "*.fbcdn.net" patterns must not match it.
		return cert.Certificate{
			SubjectOrg: "Example CDN Resellers",
			SubjectCN:  "fbcdn.net",
			Issuer:     "Let's Encrypt",
		}
	case 1:
		// Decoy: lookalike organization.
		return cert.Certificate{
			SubjectOrg: "Googlevideo Fanclub e.V.",
			SubjectCN:  fmt.Sprintf("cache%d.%s.example.net", i, isp.Country),
			Issuer:     "Let's Encrypt",
		}
	case 2:
		// Decoy: hypergiant-like label embedded mid-name.
		return cert.Certificate{
			SubjectOrg: "Hosting GmbH",
			SubjectCN:  fmt.Sprintf("googlevideo.com.cdn%d.example.org", i),
			Issuer:     "Let's Encrypt",
		}
	default:
		return cert.Certificate{
			SubjectOrg: fmt.Sprintf("%s Web Services %d", isp.Name, i),
			SubjectCN:  fmt.Sprintf("www%d.as%d.example.com", i, isp.ASN),
			Issuer:     "Let's Encrypt",
		}
	}
}

// poisson draws a Poisson variate via inversion; fine for small means.
func poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
