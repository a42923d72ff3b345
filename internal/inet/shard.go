package inet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/par"
	"offnetrisk/internal/rngutil"
)

// The sharded builder. Where the legacy generator threads one RNG stream
// through every entity in sequence (so it can never be split without moving
// every draw), this builder derives an independent substream per entity:
//
//	rngutil.Derive(seed, Label("inet"), <phase label>, entityIndex)
//
// The entity index is the logical shard; Config.Shards only groups those
// logical shards into batches for the worker pool. Consequently the composed
// world is byte-identical at ANY shard count and ANY worker count — the
// property the shard-composition suite asserts across {1, 2, 7, GOMAXPROCS}.
//
// Address space is planned, not allocated: entity i's prefixes occupy a
// deterministic [start24, start24+n24) run of /24 slots computed from the
// config alone (prefix sums for the access tier), rendered to minimal CIDRs
// by netaddr.AppendSlash24Range. No shared pool, no cross-shard state.
//
// The only sequential passes are the cheap ones whose outputs must be
// partition-independent: country weights, the IXP skeleton, the Zipf
// normalization sum (floating-point addition is not associative, so the sum
// runs in ascending rank order), and the final merge.

// defaultShards is the shard count when Config.Shards is unset. It is a
// fixed constant rather than GOMAXPROCS so the deterministic fan-out
// counters (par.tasks_total) that land in run manifests do not vary across
// machines.
const defaultShards = 16

// Substream labels, one per generation phase.
var (
	labInet     = rngutil.Label("inet")
	labCountry  = rngutil.Label("country")
	labIXP      = rngutil.Label("ixp")
	labBackbone = rngutil.Label("backbone")
	labTransit  = rngutil.Label("transit")
	labUsers    = rngutil.Label("users")
	labAccess   = rngutil.Label("access")
)

// generateSharded is the Sharded=true entry point behind Generate.
func generateSharded(cfg Config) *World {
	p := newShardPlan(cfg)

	backbones := p.runShards(cfg.Backbones, p.buildBackbone)
	transits := p.runShards(cfg.TransitISPs, p.buildTransit)
	p.indexTransits(transits)
	p.planUsers()
	access := p.runShards(cfg.AccessISPs, p.buildAccess)

	return p.merge(backbones, transits, access)
}

// memberPair records one IXP membership decision; fabric addresses are
// assigned at merge time by ascending member ASN.
type memberPair struct {
	ixp IXPID
	as  ASN
}

// genArena carves entity-owned slices out of chunked blocks, so a shard's
// thousands of ISPs cost a handful of block allocations instead of several
// slice allocations each. Growth opens a new block; carved slices never move.
type genArena[T any] struct {
	cur []T
}

func (a *genArena[T]) carve(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		b := 4096
		if n > b {
			b = n
		}
		a.cur = make([]T, 0, b)
	}
	lo := len(a.cur)
	a.cur = a.cur[:lo+n]
	return a.cur[lo : lo+n : lo+n]
}

func carveCopy[T any](a *genArena[T], src []T) []T {
	dst := a.carve(len(src))
	copy(dst, src)
	return dst
}

// genShard is one shard's output: entity values in index order plus the
// arenas backing their slices. The merged World's maps point straight into
// these; nothing is copied.
type genShard struct {
	isps  []ISP
	facs  []Facility
	spans []ownerSpan
	joins []memberPair

	metros   genArena[geo.Metro]
	provs    genArena[ASN]
	prefixes genArena[netaddr.Prefix]
	fids     genArena[FacilityID]
	ixpIDs   genArena[IXPID]
}

// shardScratch is per-worker state: a reseedable RNG (math/rand's source
// reinitializes in place, so per-entity streams cost zero allocations) and
// reusable draw buffers. Every field is fully overwritten per entity.
type shardScratch struct {
	rng     *rand.Rand
	perm    []int
	prefBuf []netaddr.Prefix
	ixpBuf  []IXPID
	ccBuf   []string
}

func newShardScratch() *shardScratch {
	return &shardScratch{rng: rngutil.New(0)}
}

// seed rewinds the scratch RNG onto entity i's substream for the phase.
func (sc *shardScratch) seed(seed, phase int64, i int) *rand.Rand {
	sc.rng.Seed(rngutil.Derive(seed, labInet, phase, int64(i)))
	return sc.rng
}

// sample draws k distinct indices from [0,n) by partial Fisher-Yates into a
// reused buffer; the result is valid until the next call.
func (sc *shardScratch) sample(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	if cap(sc.perm) < n {
		sc.perm = make([]int, n)
	}
	buf := sc.perm[:n]
	for i := range buf {
		buf[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf[:k]
}

// shardPlan is the deterministic layout of one sharded build, computed
// sequentially up front so shards run against read-only shared state.
type shardPlan struct {
	cfg     Config
	shards  int
	workers int

	countries []string
	weight    []float64
	sq        []float64
	metrosBy  map[string][]geo.Metro

	ixps    []*IXP
	ixpsBy  map[string][]*IXP
	nearest map[string]*IXP

	base          netaddr.Addr // 16.0.0.0
	transitBase24 int
	accessBase24  int
	accStride     int
	transitFIDs   FacilityID

	transitsBy  map[string][]ASN
	allTransits []ASN

	users   []float64
	n24     []int
	start24 []int
}

func newShardPlan(cfg Config) *shardPlan {
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultShards
	}
	workers := cfg.GenWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}

	p := &shardPlan{
		cfg:       cfg,
		shards:    shards,
		workers:   workers,
		countries: geo.Countries(),
		metrosBy:  make(map[string][]geo.Metro),
	}
	maxHome := 1
	for _, cc := range p.countries {
		home := geo.MetrosIn(cc)
		p.metrosBy[cc] = home
		if len(home) > maxHome {
			maxHome = len(home)
		}
	}

	// Country weights: one substream per country, so the weight vector never
	// depends on how entities are partitioned.
	p.weight = make([]float64, len(p.countries))
	p.sq = make([]float64, len(p.countries))
	r := rngutil.New(0)
	for ci, cc := range p.countries {
		r.Seed(rngutil.Derive(cfg.Seed, labInet, labCountry, int64(ci)))
		p.weight[ci] = float64(len(p.metrosBy[cc])) * math.Exp(r.NormFloat64()*0.5)
		p.sq[ci] = p.weight[ci] * p.weight[ci]
	}

	// Address plan: backbones at slot 0, then transits and the access tier,
	// each aligned to a /16 boundary.
	p.base = netaddr.MustPrefix("16.0.0.0/4").First()
	p.transitBase24 = roundUp24(cfg.Backbones*8, 256)
	p.accessBase24 = roundUp24(p.transitBase24+cfg.TransitISPs*4, 256)

	// Facility IDs are strided per entity so shards never coordinate: access
	// ISP i owns [1+i*accStride, 1+(i+1)*accStride); transit facilities keep
	// the legacy 1_000_000 base unless the access range would reach it.
	p.accStride = maxHome + 2 // per-metro facilities plus up to two extras
	p.transitFIDs = FacilityID(1_000_000)
	if top := FacilityID(1 + cfg.AccessISPs*p.accStride); top > p.transitFIDs {
		p.transitFIDs = top
	}

	p.planIXPs()
	return p
}

func roundUp24(n, align int) int {
	return (n + align - 1) / align * align
}

// planIXPs places the exchange skeleton: metros round-robin across countries
// (wrapping when the scenario asks for more exchanges than catalogue metros,
// unlike the legacy builder which caps there), fabrics at fixed /23 slots,
// capacities from per-exchange substreams. Memberships arrive at merge.
func (p *shardPlan) planIXPs() {
	order := ixpMetroOrder()
	n := p.cfg.IXPs
	if fabrics := int(netaddr.MustPrefix("198.32.0.0/13").NumAddrs() >> 9); n > fabrics {
		n = fabrics
	}
	ixpBase := netaddr.MustPrefix("198.32.0.0/13").First()
	r := rngutil.New(0)
	p.ixps = make([]*IXP, n)
	p.ixpsBy = make(map[string][]*IXP)
	for i := 0; i < n; i++ {
		m := geo.Metros[order[i%len(order)]]
		r.Seed(rngutil.Derive(p.cfg.Seed, labInet, labIXP, int64(i)))
		x := &IXP{
			ID:           IXPID(i + 1),
			Name:         fmt.Sprintf("ix-%s-%d", m.Code, i+1),
			Metro:        m,
			Fabric:       netaddr.Prefix{Addr: ixpBase + netaddr.Addr(i)<<9, Bits: 23},
			MemberAddr:   make(map[ASN]netaddr.Addr),
			CapacityGbps: rngutil.LogNormal(r, math.Log(400), 0.7),
		}
		p.ixps[i] = x
		p.ixpsBy[m.Country] = append(p.ixpsBy[m.Country], x)
	}
	p.nearest = make(map[string]*IXP, len(geo.Metros))
	for _, m := range geo.Metros {
		var best *IXP
		bestD := math.Inf(1)
		for _, x := range p.ixps {
			if d := geo.DistanceKm(m.Loc, x.Metro.Loc); d < bestD {
				best, bestD = x, d
			}
		}
		p.nearest[m.Code] = best
	}
}

// runShards partitions [0,n) into p.shards contiguous batches and builds
// them on the worker pool. Entity order inside a shard and shard order in
// the result are both ascending, so concatenating shard outputs yields the
// same sequence at any shard count.
func (p *shardPlan) runShards(n int, build func(i int, sh *genShard, sc *shardScratch)) []*genShard {
	out, err := par.MapLocal(context.Background(), p.shards, par.Options{Workers: p.workers},
		newShardScratch,
		func(_ context.Context, s int, sc *shardScratch) (*genShard, error) {
			lo, hi := s*n/p.shards, (s+1)*n/p.shards
			sh := &genShard{isps: make([]ISP, 0, hi-lo)}
			for i := lo; i < hi; i++ {
				build(i, sh, sc)
			}
			return sh, nil
		})
	if err != nil {
		panic(err) // only a builder panic can land here; re-raise it
	}
	return out
}

// planPrefixes renders entity-owned address space from the layout plan: a
// contiguous run of n24 /24 slots becomes minimal CIDRs plus one owner span.
func (p *shardPlan) planPrefixes(sh *genShard, sc *shardScratch, isp *ISP, start24, n24 int) {
	if n24 <= 0 {
		return
	}
	start := p.base + netaddr.Addr(start24)<<8
	sc.prefBuf = netaddr.AppendSlash24Range(sc.prefBuf[:0], start, n24)
	isp.Prefixes = carveCopy(&sh.prefixes, sc.prefBuf)
	sh.spans = append(sh.spans, ownerSpan{first: start, last: start + netaddr.Addr(n24)<<8 - 1, as: isp.ASN})
}

func (p *shardPlan) buildBackbone(i int, sh *genShard, sc *shardScratch) {
	s := sc.seed(p.cfg.Seed, labBackbone, i)
	n := rngutil.IntBetween(s, 25, 45)
	idx := sc.sample(s, len(geo.Metros), n)
	metros := sh.metros.carve(n)
	for k, j := range idx {
		metros[k] = geo.Metros[j]
	}
	sh.isps = append(sh.isps, ISP{
		ASN:     ASN(asnBackboneBase + i),
		Name:    fmt.Sprintf("backbone-%d", i+1),
		Country: metros[0].Country,
		Tier:    TierBackbone,
		Metros:  metros,
	})
	isp := &sh.isps[len(sh.isps)-1]
	p.planPrefixes(sh, sc, isp, i*8, 8)
	sc.ixpBuf = sc.ixpBuf[:0]
	for _, x := range p.ixps {
		if rngutil.Bernoulli(s, 0.7) {
			sh.joins = append(sh.joins, memberPair{x.ID, isp.ASN})
			sc.ixpBuf = append(sc.ixpBuf, x.ID)
		}
	}
	isp.IXPs = carveCopy(&sh.ixpIDs, sc.ixpBuf)
}

func (p *shardPlan) buildTransit(i int, sh *genShard, sc *shardScratch) {
	s := sc.seed(p.cfg.Seed, labTransit, i)
	cc := p.countries[rngutil.WeightedChoice(s, p.weight)]
	home := p.metrosBy[cc]
	extra := rngutil.IntBetween(s, 2, 6)
	metros := sh.metros.carve(len(home) + extra)
	copy(metros, home)
	for k, j := range sc.sample(s, len(geo.Metros), extra) {
		metros[len(home)+k] = geo.Metros[j]
	}
	sh.isps = append(sh.isps, ISP{
		ASN:     ASN(asnTransitBase + i),
		Name:    fmt.Sprintf("transit-%s-%d", cc, i+1),
		Country: cc,
		Tier:    TierTransit,
		Metros:  metros,
	})
	isp := &sh.isps[len(sh.isps)-1]

	nProv := rngutil.IntBetween(s, 1, 2)
	provs := sh.provs.carve(nProv)
	for k, j := range sc.sample(s, p.cfg.Backbones, nProv) {
		provs[k] = ASN(asnBackboneBase + j)
	}
	isp.Providers = provs

	p.planPrefixes(sh, sc, isp, p.transitBase24+i*4, 4)

	// Footprint = the set of countries the metros cover; code-level matches
	// imply a country match, so the set check equals the legacy metro scan.
	sc.ccBuf = sc.ccBuf[:0]
	for _, m := range metros {
		if !containsStr(sc.ccBuf, m.Country) {
			sc.ccBuf = append(sc.ccBuf, m.Country)
		}
	}
	sc.ixpBuf = sc.ixpBuf[:0]
	for _, x := range p.ixps {
		if containsStr(sc.ccBuf, x.Metro.Country) && rngutil.Bernoulli(s, 0.6) {
			sh.joins = append(sh.joins, memberPair{x.ID, isp.ASN})
			sc.ixpBuf = append(sc.ixpBuf, x.ID)
		}
	}
	isp.IXPs = carveCopy(&sh.ixpIDs, sc.ixpBuf)

	nf := rngutil.IntBetween(s, 1, 2)
	fids := sh.fids.carve(nf)
	for k := 0; k < nf; k++ {
		m := metros[k%len(metros)]
		fid := p.transitFIDs + FacilityID(i*2+k)
		sh.facs = append(sh.facs, Facility{
			ID:    fid,
			Owner: isp.ASN,
			Metro: m,
			Loc:   jitterLoc(s, m.Loc, 0.15),
			Racks: rngutil.IntBetween(s, 8, 40),
		})
		fids[k] = fid
	}
	isp.Facilities = fids
}

// indexTransits groups the built transit tier by home country (ascending
// ASN), the provider candidate lists the access tier samples from.
func (p *shardPlan) indexTransits(shards []*genShard) {
	p.transitsBy = make(map[string][]ASN)
	p.allTransits = make([]ASN, 0, p.cfg.TransitISPs)
	for _, sh := range shards {
		for k := range sh.isps {
			isp := &sh.isps[k]
			p.transitsBy[isp.Country] = append(p.transitsBy[isp.Country], isp.ASN)
			p.allTransits = append(p.allTransits, isp.ASN)
		}
	}
}

// planUsers draws the Zipf population: per-entity noise from independent
// substreams (parallel), then a normalization sum taken in ascending rank
// order — float addition is not associative, so per-shard partial sums would
// make populations depend on the partition.
func (p *shardPlan) planUsers() {
	n := p.cfg.AccessISPs
	weights := make([]float64, n)
	chunks, err := par.MapLocal(context.Background(), p.shards, par.Options{Workers: p.workers},
		newShardScratch,
		func(_ context.Context, s int, sc *shardScratch) (struct{}, error) {
			lo, hi := s*n/p.shards, (s+1)*n/p.shards
			for i := lo; i < hi; i++ {
				z := sc.seed(p.cfg.Seed, labUsers, i).NormFloat64()
				weights[i] = 1 / math.Pow(float64(i+1), p.cfg.ZipfExponent) * math.Exp(z*0.25)
			}
			return struct{}{}, nil
		})
	_ = chunks
	if err != nil {
		panic(err)
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	p.users = weights
	for i := range p.users {
		p.users[i] = p.users[i] / sum * p.cfg.TotalUsers
	}

	// Address plan: contiguous /24 runs by prefix sum, clamped to the pool.
	p.n24 = make([]int, n)
	p.start24 = make([]int, n)
	limit24 := int(netaddr.MustPrefix("16.0.0.0/4").NumAddrs() >> 8)
	cursor := p.accessBase24
	for i := 0; i < n; i++ {
		n24 := int(math.Ceil(p.users[i] / p.cfg.UsersPerSlash24))
		n24 = min(max(n24, 1), 512)
		if cursor+n24 > limit24 {
			n24 = max(limit24-cursor, 0) // degraded, like pool exhaustion
		}
		p.start24[i] = cursor
		p.n24[i] = n24
		cursor += n24
	}
}

func (p *shardPlan) buildAccess(i int, sh *genShard, sc *shardScratch) {
	cfg := p.cfg
	s := sc.seed(cfg.Seed, labAccess, i)
	wsel := p.weight
	if i < cfg.AccessISPs/3 {
		wsel = p.sq
	}
	cc := p.countries[rngutil.WeightedChoice(s, wsel)]
	home := p.metrosBy[cc]
	nm := 1
	switch {
	case i < cfg.AccessISPs/20:
		nm = rngutil.IntBetween(s, min(2, len(home)), len(home))
	case i < cfg.AccessISPs/4:
		nm = rngutil.IntBetween(s, 1, min(3, len(home)))
	}
	nm = min(nm, len(home))
	metros := sh.metros.carve(nm)
	for k, j := range sc.sample(s, len(home), nm) {
		metros[k] = home[j]
	}
	sh.isps = append(sh.isps, ISP{
		ASN:     ASN(asnAccessBase + i),
		Name:    fmt.Sprintf("access-%s-%d", cc, i+1),
		Country: cc,
		Tier:    TierAccess,
		Users:   p.users[i],
		Metros:  metros,
	})
	isp := &sh.isps[len(sh.isps)-1]

	nProv := 1
	if i < cfg.AccessISPs/5 {
		nProv = rngutil.IntBetween(s, 1, 2)
	}
	cands := p.transitsBy[cc]
	if len(cands) == 0 {
		cands = p.allTransits
	}
	if len(cands) == 0 {
		provs := sh.provs.carve(1)
		provs[0] = ASN(asnBackboneBase)
		isp.Providers = provs
	} else {
		idx := sc.sample(s, len(cands), nProv)
		provs := sh.provs.carve(len(idx))
		for k, j := range idx {
			provs[k] = cands[j]
		}
		isp.Providers = provs
	}

	p.planPrefixes(sh, sc, isp, p.start24[i], p.n24[i])

	// Facilities: one per metro plus extras in the primary metro for the
	// biggest ISPs. The extra decision is drawn up front (its own fixed spot
	// in the entity's stream) rather than inside the metro loop.
	extra := 0
	if i < cfg.AccessISPs/10 && rngutil.Bernoulli(s, 0.5) {
		extra = rngutil.IntBetween(s, 1, 2)
	}
	fids := sh.fids.carve(nm + extra)
	slot := 0
	for mi, m := range metros {
		e := 0
		if mi == 0 {
			e = extra
		}
		for k := 0; k <= e; k++ {
			fid := FacilityID(1 + i*p.accStride + slot)
			sh.facs = append(sh.facs, Facility{
				ID:    fid,
				Owner: isp.ASN,
				Metro: m,
				Loc:   jitterLoc(s, m.Loc, 0.15),
				Racks: rngutil.IntBetween(s, 4, 40),
			})
			fids[slot] = fid
			slot++
		}
	}
	isp.Facilities = fids

	// IXP membership. Access footprints stay inside the home country, so
	// "in-footprint exchanges" is exactly the per-country list; iteration is
	// ID-ascending, matching the legacy scan order.
	joinP := 0.15 + 0.6*math.Exp(-float64(i)/float64(cfg.AccessISPs/4+1))
	joined := false
	sc.ixpBuf = sc.ixpBuf[:0]
	for _, x := range p.ixpsBy[cc] {
		if rngutil.Bernoulli(s, joinP) {
			sh.joins = append(sh.joins, memberPair{x.ID, isp.ASN})
			sc.ixpBuf = append(sc.ixpBuf, x.ID)
			joined = true
		}
	}
	if !joined && rngutil.Bernoulli(s, 0.35+joinP/2) {
		if x := p.nearest[metros[0].Code]; x != nil {
			sh.joins = append(sh.joins, memberPair{x.ID, isp.ASN})
			sc.ixpBuf = append(sc.ixpBuf, x.ID)
		}
	}
	isp.IXPs = carveCopy(&sh.ixpIDs, sc.ixpBuf)
}

// merge composes the shard outputs into one World: maps point into the shard
// slabs, announcement spans concatenate and sort, and IXP memberships get
// fabric addresses by ascending member ASN (the phase-then-shard-then-entity
// concatenation order is already ASN-ascending for every partition).
func (p *shardPlan) merge(phases ...[]*genShard) *World {
	cfg := p.cfg
	w := newWorld(cfg.Seed)
	nISPs := cfg.Backbones + cfg.TransitISPs + cfg.AccessISPs
	w.ISPs = make(map[ASN]*ISP, nISPs)
	w.Facilities = make(map[FacilityID]*Facility, cfg.TransitISPs*2+cfg.AccessISPs*2)
	w.IXPs = make(map[IXPID]*IXP, len(p.ixps))

	var lastISPAddr netaddr.Addr
	perIXP := make([][]ASN, len(p.ixps)+1)
	counts := make([]int, len(p.ixps)+1)
	for _, phase := range phases {
		for _, sh := range phase {
			for _, pair := range sh.joins {
				counts[pair.ixp]++
			}
		}
	}
	for id := 1; id <= len(p.ixps); id++ {
		perIXP[id] = make([]ASN, 0, counts[id])
	}
	for _, phase := range phases {
		for _, sh := range phase {
			for k := range sh.isps {
				isp := &sh.isps[k]
				w.ISPs[isp.ASN] = isp
			}
			for k := range sh.facs {
				f := &sh.facs[k]
				w.Facilities[f.ID] = f
			}
			w.owners = append(w.owners, sh.spans...)
			for _, sp := range sh.spans {
				if sp.last > lastISPAddr {
					lastISPAddr = sp.last
				}
			}
			for _, pair := range sh.joins {
				perIXP[pair.ixp] = append(perIXP[pair.ixp], pair.as)
			}
		}
	}

	// Fabric address assignment; members beyond the fabric's capacity are
	// dropped deterministically (highest ASNs last in, first out).
	var dropped map[memberPair]bool
	for _, x := range p.ixps {
		w.IXPs[x.ID] = x
		members := perIXP[x.ID]
		for rank, as := range members {
			addr := x.Fabric.First() + netaddr.Addr(rank+1)
			if addr > x.Fabric.Last()-1 {
				if dropped == nil {
					dropped = make(map[memberPair]bool)
				}
				dropped[memberPair{x.ID, as}] = true
				continue
			}
			x.MemberAddr[as] = addr
		}
	}
	if dropped != nil {
		for _, isp := range w.ISPs {
			kept := isp.IXPs[:0]
			for _, id := range isp.IXPs {
				if !dropped[memberPair{id, isp.ASN}] {
					kept = append(kept, id)
				}
			}
			isp.IXPs = kept
		}
	}

	if lastISPAddr != 0 {
		w.ispPool.AdvancePast(lastISPAddr)
	}
	if n := len(p.ixps); n > 0 {
		w.ixpPool.AdvancePast(p.ixps[n-1].Fabric.Last())
	}
	w.finalize()
	mWorldsGenerated.Inc()
	mISPsGenerated.Add(int64(len(w.ISPs)))
	return w
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
