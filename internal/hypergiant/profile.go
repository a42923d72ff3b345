package hypergiant

import (
	"fmt"
	"math/rand"

	"offnetrisk/internal/cert"
	"offnetrisk/internal/traffic"
)

// Profile captures a hypergiant's deployment behaviour: how broadly it
// deploys at each epoch, how its boxes are sized, and the certificates it
// installs — including the naming changes between 2021 and 2023 that broke
// the original discovery methodology. The world-shaped fields come from a
// scenario spec (ProfilesFromScenario); the certificate conventions are
// compiled in (Profiles).
type Profile struct {
	HG traffic.HG
	// Coverage is the fraction of access ISPs hosting offnets at each
	// epoch.
	Coverage map[Epoch]float64
	// ServerGbps is the per-server serving capacity.
	ServerGbps float64
	// MaxServersPerISP caps a deployment's size in one ISP.
	MaxServersPerISP int
	// LegacySpread is the probability that a deployment predates current
	// colocation practice and sits in a non-primary facility.
	LegacySpread float64
	// OnnetOrg is the Organization entry on the hypergiant's own (onnet)
	// certificates.
	OnnetOrg string
	// OnnetDomains are hostnames served from onnet, which the 2021
	// methodology compared offnet names against.
	OnnetDomains []string
}

// Profiles returns the four hypergiants' certificate conventions: the
// identity and onnet naming of each Profile. The world-shaped fields are
// left zero; ProfilesFromScenario fills them from a spec.
func Profiles() map[traffic.HG]Profile {
	return map[traffic.HG]Profile{
		traffic.Google: {
			HG:           traffic.Google,
			OnnetOrg:     "Google LLC",
			OnnetDomains: []string{"www.google.com", "youtube.com", "ggc.google.com"},
		},
		traffic.Netflix: {
			HG:           traffic.Netflix,
			OnnetOrg:     "Netflix, Inc.",
			OnnetDomains: []string{"netflix.com", "nflxvideo.net"},
		},
		traffic.Meta: {
			HG:           traffic.Meta,
			OnnetOrg:     "Meta Platforms, Inc.",
			OnnetDomains: []string{"facebook.com", "instagram.com", "star.c10r.facebook.com"},
		},
		traffic.Akamai: {
			HG:           traffic.Akamai,
			OnnetOrg:     "Akamai Technologies, Inc.",
			OnnetDomains: []string{"a248.e.akamai.net", "akamaiedge.net"},
		},
	}
}

// offnetCert builds the certificate a hypergiant installs on an offnet
// server at the given epoch and site. The 2021→2023 changes are the ones §2.2
// documents:
//
//   - Google 2021 certificates carried Organization "Google LLC"; by 2023
//     Google "does not include the Organization entry", and identification
//     must use the CN *.googlevideo.com (plus issuer checks).
//   - Meta 2021 offnets presented the same names as onnet servers
//     (*.fbcdn.net); by 2023 Meta "uses different domain names for different
//     offnet deployments" — site-specific CNs like *.fhan14-4.fna.fbcdn.net.
//   - Netflix and Akamai conventions are stable across epochs.
func offnetCert(hg traffic.HG, epoch Epoch, siteTag string, serverIdx int, r *rand.Rand) cert.Certificate {
	switch hg {
	case traffic.Google:
		cn := "*.googlevideo.com"
		san := fmt.Sprintf("r%d---sn-%s.googlevideo.com", serverIdx+1, siteTag)
		if epoch == Epoch2021 {
			return cert.Certificate{
				SubjectOrg: "Google LLC",
				SubjectCN:  cn,
				DNSNames:   []string{san},
				Issuer:     "Google Trust Services LLC",
			}
		}
		return cert.Certificate{
			// Organization entry removed post-2021.
			SubjectCN: cn,
			DNSNames:  []string{san},
			Issuer:    "Google Trust Services LLC",
		}
	case traffic.Netflix:
		return cert.Certificate{
			SubjectOrg: "Netflix, Inc.",
			SubjectCN:  "*.nflxvideo.net",
			DNSNames: []string{fmt.Sprintf("ipv4-c%03d-%s-isp.1.oca.nflxvideo.net",
				serverIdx+1, siteTag)},
			Issuer: "DigiCert Inc",
		}
	case traffic.Meta:
		if epoch == Epoch2021 {
			return cert.Certificate{
				SubjectOrg: "Facebook, Inc.",
				SubjectCN:  "*.fbcdn.net",
				DNSNames:   []string{"*.fbcdn.net", "*.facebook.com"},
				Issuer:     "DigiCert Inc",
			}
		}
		// Site-specific naming, e.g. *.fhan14-4.fna.fbcdn.net.
		site := fmt.Sprintf("*.f%s-%d.fna.fbcdn.net", siteTag, serverIdx%6+1)
		return cert.Certificate{
			SubjectOrg: "Meta Platforms, Inc.",
			SubjectCN:  site,
			DNSNames:   []string{site},
			Issuer:     "DigiCert Inc",
		}
	case traffic.Akamai:
		return cert.Certificate{
			SubjectOrg: "Akamai Technologies, Inc.",
			SubjectCN:  "a248.e.akamai.net",
			DNSNames:   []string{"*.akamaiedge.net", "a248.e.akamai.net"},
			Issuer:     "Let's Encrypt",
		}
	default:
		return cert.Certificate{}
	}
}
