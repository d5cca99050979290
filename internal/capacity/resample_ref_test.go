package capacity

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// resampleRef is the reference bootstrap replicate: the same xorshift64*
// stream as resample, with each draw compared as a float, next() < p.
func (c Counts) resampleRef(seed uint64, i int, p1, p2 float64) float64 {
	state := seed + (uint64(i)+1)*0x9e3779b97f4a7c15
	state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9
	state = (state ^ (state >> 27)) * 0x94d049bb133111eb
	state ^= state >> 31
	if state == 0 {
		state = 0x2545f4914f6cdd1d
	}
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11) / float64(1<<53)
	}
	binom := func(n int, p float64) int {
		k := 0
		for j := 0; j < n; j++ {
			if next() < p {
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

// sortFloatsRef is the reference sort: an insertion sort by <.
func sortFloatsRef(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// edgeProbabilities are draw probabilities at and next to the 2^-53 grid
// the threshold compare works on, plus the values that never or always
// draw.
func edgeProbabilities() []float64 {
	ps := []float64{0, math.Copysign(0, -1), 1, -0.5, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0.5, 1.0 / 3, 2.0 / 3, 0.999, 1e-9}
	for _, k := range []float64{1, 2, 3, 1 << 20, 1<<53 - 1} {
		p := k / (1 << 53)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 2))
	}
	return ps
}

// TestDrawThresholdExact checks that x < drawThreshold(p) decides exactly
// what float64(x)/2^53 < p decides, at the integers around the threshold.
func TestDrawThresholdExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := edgeProbabilities()
	for i := 0; i < 2000; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		th := drawThreshold(p)
		for _, x := range []uint64{0, 1, th - 1, th, th + 1, 1<<53 - 1} {
			if x >= 1<<53 {
				continue
			}
			if got, want := x < th, float64(x)/float64(1<<53) < p; got != want {
				t.Fatalf("p=%v (threshold %d), x=%d: integer compare %v, float compare %v", p, th, x, got, want)
			}
		}
	}
}

// TestResampleMatchesReference compares the integer-threshold resample with
// the float-compare reference, bit for bit, over random counts, seeds and
// replicate indices, at the counts' own probabilities and at the edge
// probabilities.
func TestResampleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := edgeProbabilities()
	for trial := 0; trial < 300; trial++ {
		m, n := 1+rng.Intn(600), 1+rng.Intn(600)
		c := Counts{Mapped: m, MappedMisses: rng.Intn(m + 1), NotMapped: n, NotMappedMisses: rng.Intn(n + 1)}
		seed := rng.Uint64()
		p1, p2 := c.Probabilities()
		pairs := [][2]float64{{p1, p2}, {edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]}}
		for _, pp := range pairs {
			for _, i := range []int{0, 1, rng.Intn(1000)} {
				got, want := c.resample(seed, i, pp[0], pp[1]), c.resampleRef(seed, i, pp[0], pp[1])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v seed %#x i %d p=(%v,%v): resample %v, reference %v", c, seed, i, pp[0], pp[1], got, want)
				}
			}
		}
		// The whole interval, against the reference replicates sorted by
		// the reference sort.
		resamples := 1 + rng.Intn(300)
		lo, hi, err := c.bootstrapResample(context.Background(), resamples, 0.95, seed, p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		caps := make([]float64, resamples)
		for i := range caps {
			caps[i] = c.resampleRef(seed, i, p1, p2)
		}
		sortFloatsRef(caps)
		loIdx, hiIdx := int(0.025*float64(resamples)), int(0.975*float64(resamples))
		if hiIdx >= resamples {
			hiIdx = resamples - 1
		}
		if math.Float64bits(lo) != math.Float64bits(caps[loIdx]) || math.Float64bits(hi) != math.Float64bits(caps[hiIdx]) {
			t.Fatalf("%+v seed %#x r=%d: interval [%v,%v], reference [%v,%v]", c, seed, resamples, lo, hi, caps[loIdx], caps[hiIdx])
		}
	}
}

// TestSortFloatsMatchesInsertionSort checks sortFloats against the
// insertion sort it replaced, bit for bit, on slices full of ties, signed
// zeros, infinities and NaNs.
func TestSortFloatsMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 0.25, 0.5, 1e-300}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(120)
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = rng.Float64()
			} else {
				v[i] = pool[rng.Intn(len(pool))]
			}
		}
		if trial%2 == 0 {
			// Half the slices carry no NaN, the case campaigns produce.
			for i := range v {
				if math.IsNaN(v[i]) {
					v[i] = math.Copysign(0, -1)
				}
			}
		}
		got, want := append([]float64(nil), v...), append([]float64(nil), v...)
		sortFloats(got)
		sortFloatsRef(want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("input %v:\nsortFloats %v\nreference  %v", v, got, want)
			}
		}
	}
}
