// Package capacity implements the channel-capacity analysis of paper §5.2
// and the theoretical hit/miss probability models of §5.3.1.
//
// The attacker's knowledge gain is quantified as the mutual information
// C = I(B; O) between the victim's behaviour B (the secret access maps /
// does not map to the tested TLB block, each with probability 1/2) and the
// attacker's observation O (miss / hit), Eq. (1) of the paper. p1 is the
// miss probability when the victim's access maps, p2 when it does not
// (Table 3). A TLB defends a vulnerability exactly when C = 0, i.e. when
// p1 = p2.
package capacity

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"securetlb/internal/model"
	"securetlb/internal/pool"
)

// ErrUnmappedPattern is returned by RFTheory for a pattern shape outside the
// six §5.3.1 collapses — a classification bug or a hand-built vulnerability,
// either way a condition one caller should handle, not a process panic.
var ErrUnmappedPattern = errors.New("capacity: pattern has no RF collapse rule")

// MutualInformation evaluates Eq. (1): the capacity in bits of the binary
// channel from victim behaviour to attacker observation, given miss
// probabilities p1 (mapped) and p2 (not mapped) and a uniform behaviour
// prior. Degenerate 0·log0 terms contribute zero.
func MutualInformation(p1, p2 float64) float64 {
	if p1 < 0 || p1 > 1 || p2 < 0 || p2 > 1 {
		return math.NaN()
	}
	term := func(p, q float64) float64 {
		// p/2 · log2(2p / (p+q)), with 0·log0 = 0.
		if p == 0 {
			return 0
		}
		return p / 2 * math.Log2(2*p/(p+q))
	}
	c := term(p1, p2) + term(p2, p1) + term(1-p1, 1-p2) + term(1-p2, 1-p1)
	// Clamp tiny negative rounding residue.
	if c < 0 && c > -1e-12 {
		c = 0
	}
	return c
}

// Counts are raw trial counts from the micro security benchmarks: out of
// Mapped (resp. NotMapped) trials, MappedMisses (resp. NotMappedMisses)
// observed a TLB miss in the final step. n_{M,M} and n_{N,M} of Table 4.
type Counts struct {
	Mapped, MappedMisses       int
	NotMapped, NotMappedMisses int
}

// Probabilities returns the empirical p1* and p2*.
func (c Counts) Probabilities() (p1, p2 float64) {
	if c.Mapped > 0 {
		p1 = float64(c.MappedMisses) / float64(c.Mapped)
	}
	if c.NotMapped > 0 {
		p2 = float64(c.NotMappedMisses) / float64(c.NotMapped)
	}
	return p1, p2
}

// Capacity returns the empirical channel capacity C*.
func (c Counts) Capacity() float64 {
	p1, p2 := c.Probabilities()
	return MutualInformation(p1, p2)
}

// DeterministicTheory derives the theoretical (p1, p2) for a vulnerability
// under a deterministic design (the generic/shared model, the SA TLB's ASID
// tagging, or the SP TLB's partitioning) by replaying the symbolic oracle:
// in a deterministic TLB the final observation in each scenario is fixed, so
// each probability is 0 or 1. The "mapped" scenario is the one the
// vulnerability's informative observation identifies in the base model.
func DeterministicTheory(v model.Vulnerability, d model.Design) (p1, p2 float64, err error) {
	if len(v.MappedScenarios) == 0 {
		return 0, 0, fmt.Errorf("capacity: vulnerability %s has no mapped scenario", v)
	}
	out := model.Analyze(v.Pattern, d)
	mapped := out.PerScenario[v.MappedScenarios[0]]
	diff := out.PerScenario[model.ScenDiff]
	toP := func(o model.Observation) (float64, error) {
		switch o {
		case model.ObsSlow:
			return 1, nil
		case model.ObsFast:
			return 0, nil
		}
		return 0, fmt.Errorf("capacity: observation %s is not deterministic", o)
	}
	if p1, err = toP(mapped); err != nil {
		return 0, 0, err
	}
	if p2, err = toP(diff); err != nil {
		return 0, 0, err
	}
	return p1, p2, nil
}

// RFParams are the Random-Fill TLB security-evaluation parameters of §5.3:
// an 8-way, 32-entry TLB (4 sets), a small secure region of 3 pages for the
// d-interaction patterns, a large region of 31 pages to exercise contention
// between secure translations, and 28 user pages sufficient to prime the
// TLB.
type RFParams struct {
	NSets, NWays               int
	SecRangeSmall, SecRangeBig int
	PrimeNum                   int
}

// DefaultRFParams mirror the paper's simulation setup.
var DefaultRFParams = RFParams{NSets: 4, NWays: 8, SecRangeSmall: 3, SecRangeBig: 31, PrimeNum: 28}

// SecRangeFor returns the secure-region size the paper's evaluation uses for
// a given vulnerability: the large, contention-heavy region for the three
// a-dominated collapsed patterns (V_u⇝a⇝V_u, a^alias⇝V_u⇝a, a⇝V_u⇝a), the
// small region otherwise.
func (p RFParams) SecRangeFor(v model.Vulnerability) int {
	c1, c2, c3 := v.Pattern[0].Class, v.Pattern[1].Class, v.Pattern[2].Class
	switch {
	case c1 == model.ClassU && c2 == model.ClassA && c3 == model.ClassU:
		return p.SecRangeBig
	case c1 == model.ClassAlias && c2 == model.ClassU:
		return p.SecRangeBig
	case c1 == model.ClassA && c2 == model.ClassU && c3 == model.ClassA:
		return p.SecRangeBig
	}
	return p.SecRangeSmall
}

// RFTheory computes the theoretical (p1, p2) for a vulnerability under the
// Random-Fill TLB, following the six collapsed patterns of §5.3.1. For the
// ten vulnerability types that ASID tagging already defends (cross-process
// hits/probes), the observation is constantly a miss: p1 = p2 = 1.
//
// In every case p1 == p2, so the RF TLB's theoretical capacity is zero for
// all 24 vulnerability types. A pattern outside the six collapses returns
// ErrUnmappedPattern.
func RFTheory(v model.Vulnerability, params RFParams) (p1, p2 float64, err error) {
	if !model.ObservationInformative(v.Pattern, model.DesignASID, v.Observation) {
		// Defended by process-ID tagging alone: the final probe always
		// misses regardless of the victim (Table 4's p1 = p2 = 1 rows).
		return 1, 1, nil
	}
	secRange := float64(params.SecRangeFor(v))
	nway := float64(params.NWays)
	nset := float64(params.NSets)
	c1, c2, c3 := v.Pattern[0].Class, v.Pattern[1].Class, v.Pattern[2].Class
	var p float64
	switch {
	case c1 == model.ClassU && c2 == model.ClassD && c3 == model.ClassU:
		// V_u ⇝ d ⇝ V_u (slow): the victim's first access random-filled one
		// of sec_range pages; the attacker's d evicts it only if the random
		// fill landed on d's set and way.
		p = 1 / secRange * (1 / (math.Min(nset, secRange) * nway))
	case c1 == model.ClassA && c2 == model.ClassU && c3 == model.ClassA:
		// a ⇝ V_u ⇝ a (slow): two sub-cases (§5.3.1).
		if v.Pattern[0].Actor == model.ActorA {
			p = nway / secRange
		} else {
			p = (secRange - float64(params.PrimeNum)) / secRange
		}
	case c1 == model.ClassU && c2 == model.ClassA && c3 == model.ClassU:
		// V_u ⇝ a ⇝ V_u (slow): all nway random-filled ways would have to
		// collide for the victim's re-access to miss.
		p = math.Pow(nway/secRange, nway)
	case c2 == model.ClassU && c3 == model.ClassA && c1 == model.ClassAlias:
		// a^alias ⇝ V_u ⇝ a (fast): hit iff the random fill drew exactly a.
		p = 1 - 1/secRange
	case c2 == model.ClassU && c3 == model.ClassA:
		// d/inv ⇝ V_u ⇝ a (fast): same reasoning, small region.
		p = 1 - 1/secRange
	case c1 == model.ClassD && c2 == model.ClassU && c3 == model.ClassD:
		// d ⇝ V_u ⇝ d (slow): the random fill displaces the primed d with
		// probability 1/sec_range.
		p = 1 / secRange
	default:
		// Any remaining shape is ASID-defended and handled above; reaching
		// here means a classification bug or a hand-built pattern.
		return 0, 0, fmt.Errorf("%w: %s", ErrUnmappedPattern, v.Pattern)
	}
	return p, p, nil
}

// RandIdxParams are the Randomized-Index TLB security-evaluation
// parameters: the geometry whose keyed placement collisions set the residual
// eviction probability.
type RandIdxParams struct {
	NSets, NWays int
}

// DefaultRandIdxParams mirror the campaign geometry (8-way, 32-entry).
var DefaultRandIdxParams = RandIdxParams{NSets: 4, NWays: 8}

// RandIdxTheory computes the theoretical (p1, p2) for a vulnerability under
// the Randomized-Index TLB.
//
// Three regimes cover all 24 vulnerability types:
//
//   - the ten types ASID tagging already defends stay constant misses
//     (p1 = p2 = 1);
//   - the hit-based (fast) types leak exactly as on the SA TLB: the keyed
//     index maps equal (ASID, VPN) pairs equally, so a same-context re-access
//     to the same address still hits — index randomization cannot (and does
//     not claim to) hide same-address reuse;
//   - the eviction-based (slow) types are where the randomization bites: the
//     probed entry is displaced only if the per-ASID keyed placements of two
//     *different* pages collide, and with a fresh random key that collision
//     probability ε = 1/(nsets·nways) is the same whether or not the
//     victim's secret shares the probed page index — mapped and unmapped
//     become indistinguishable, so C = 0.
func RandIdxTheory(v model.Vulnerability, params RandIdxParams) (p1, p2 float64, err error) {
	if !model.ObservationInformative(v.Pattern, model.DesignASID, v.Observation) {
		return 1, 1, nil
	}
	if v.Observation == model.ObsFast {
		return DeterministicTheory(v, model.DesignASID)
	}
	eps := 1 / (float64(params.NSets) * float64(params.NWays))
	return eps, eps, nil
}

// BootstrapCI computes a percentile bootstrap confidence interval for the
// empirical channel capacity C*: the mapped and not-mapped miss counts are
// resampled as binomials and Eq. (1) is re-evaluated per resample. conf is
// the two-sided confidence level (e.g. 0.95). The interval quantifies how
// sure a 500-trial campaign can be that a "defended" C* ≈ 0 verdict is not
// sampling luck.
func (c Counts) BootstrapCI(resamples int, conf float64, seed uint64) (lo, hi float64) {
	// The background context never cancels, so the error can be discarded.
	lo, hi, _ = c.BootstrapCICtx(context.Background(), resamples, conf, seed)
	return lo, hi
}

// BootstrapCICtx is BootstrapCI with cancellation: a campaign interrupted
// mid-finalisation stops resampling (checked between shards) and returns the
// context's error instead of burning the remaining binomial draws. A nil
// error guarantees the interval is the same bit-identical result BootstrapCI
// computes.
func (c Counts) BootstrapCICtx(ctx context.Context, resamples int, conf float64, seed uint64) (lo, hi float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	// With p1 and p2 each 0 or 1 every binomial draw is certain (next() lies
	// in [0, 1)), so every replicate redraws the observed counts and the
	// interval is the point estimate; such counts never reach the memo.
	p1, p2 := c.Probabilities()
	certain := (p1 == 0 || p1 == 1) && (p2 == 0 || p2 == 1)
	if resamples <= 0 || c.Mapped == 0 || c.NotMapped == 0 || certain {
		v := c.Capacity()
		return v, v, nil
	}
	key := bootstrapKey{c, resamples, conf, seed}
	if v, ok := bootstrapCache.Load(key); ok {
		cv := v.(bootstrapVal)
		return cv.lo, cv.hi, nil
	}
	lo, hi, err = c.bootstrapResample(ctx, resamples, conf, seed, p1, p2)
	if err != nil {
		return 0, 0, err
	}
	if bootstrapCacheN.Add(1) <= bootstrapCacheCap {
		bootstrapCache.Store(key, bootstrapVal{lo, hi})
	} else {
		bootstrapCacheN.Add(-1)
	}
	return lo, hi, nil
}

// bootstrapResample computes the percentile interval by resampling, without
// the memo.
func (c Counts) bootstrapResample(ctx context.Context, resamples int, conf float64, seed uint64, p1, p2 float64) (lo, hi float64, err error) {
	caps := make([]float64, resamples)
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			caps[i] = c.resample(seed, i, p1, p2)
		}
	}
	// Each resample draws from a PRNG state derived from (seed, index)
	// alone, so the result is identical however the index range is split;
	// batch across goroutines only when the binomial draws amount to real
	// work (resamples × trials), since a campaign's 300×1000 draws matter
	// but a unit test's 50×20 would be all scheduling overhead.
	if work := resamples * (c.Mapped + c.NotMapped); work >= 1<<16 {
		shards := pool.Shards(resamples, pool.Workers(0))
		err := pool.New(len(shards)).ForEachCtx(ctx, len(shards), func(s int) {
			fill(shards[s].Lo, shards[s].Hi)
		})
		if err != nil {
			return 0, 0, err
		}
	} else {
		fill(0, resamples)
	}
	sortFloats(caps)
	alpha := (1 - conf) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return caps[loIdx], caps[hiIdx], nil
}

// bootstrapKey identifies one bootstrap computation. The interval is a pure
// function of these fields (resample seeds each replicate from (seed, index)
// alone), so it can be memoized process-wide: campaign re-runs, A/B
// comparisons and checkpoint resumes re-finalize identical counts, and the
// 300-resample bootstrap is a dominant fixed cost once trials replay from
// captured traces.
type bootstrapKey struct {
	counts    Counts
	resamples int
	conf      float64
	seed      uint64
}

type bootstrapVal struct{ lo, hi float64 }

// bootstrapCache maps bootstrapKey to bootstrapVal, bounded to cap memory on
// adversarial sweeps (beyond the cap every computation just runs).
var (
	bootstrapCache  sync.Map
	bootstrapCacheN atomic.Int32
)

const bootstrapCacheCap = 1 << 12

// resample draws one bootstrap replicate of the capacity. Its xorshift64*
// state is seeded independently per index with a splitmix64 finaliser, so
// replicates are order-independent: the serial and batched evaluations of
// BootstrapCI produce bit-identical intervals.
func (c Counts) resample(seed uint64, i int, p1, p2 float64) float64 {
	state := seed + (uint64(i)+1)*0x9e3779b97f4a7c15
	state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9
	state = (state ^ (state >> 27)) * 0x94d049bb133111eb
	state ^= state >> 31
	if state == 0 {
		state = 0x2545f4914f6cdd1d
	}
	// A draw counts when its 53-bit uniform x, read as x/2^53, falls below
	// p: the integer compare x < drawThreshold(p) decides the same.
	binom := func(n int, p float64) int {
		t := drawThreshold(p)
		k := 0
		for j := 0; j < n; j++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			if state>>11 < t {
				k++
			}
		}
		return k
	}
	r := Counts{
		Mapped: c.Mapped, MappedMisses: binom(c.Mapped, p1),
		NotMapped: c.NotMapped, NotMappedMisses: binom(c.NotMapped, p2),
	}
	return r.Capacity()
}

// drawThreshold returns the t for which x/2^53 < p exactly when x < t, for
// every 53-bit integer x: ceil(p·2^53), exact because scaling by a power of
// two is. A p at or below 0, or NaN, admits no draw; a p of 1 or more
// admits every draw.
func drawThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// sortFloats sorts v ascending in place exactly as an insertion sort by <
// does: -0 and +0 keep their input order, and a NaN (which compares false
// both ways) stays where it is, with the values on either side of it sorted
// apart.
func sortFloats(v []float64) {
	for len(v) > 0 {
		n := 0
		for n < len(v) && !math.IsNaN(v[n]) {
			n++
		}
		slices.SortStableFunc(v[:n], cmp.Compare[float64])
		if n < len(v) {
			n++ // step over the NaN
		}
		v = v[n:]
	}
}
