// Package workload generates the key streams of the paper's evaluation
// (Section 4): uniform keys and Zipfian keys over the domain [1, beta] with
// beta = 2^27, Zipf factors alpha from 1 (mild skew) to 2 (high skew). The
// skew is contiguous in key space — hot keys cluster at the low end of the
// domain, hammering the same PMA segments, which is exactly the worst case
// the asynchronous update schemes of Section 3.5 target.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultDomain is the paper's key range beta = 2^27.
const DefaultDomain = 1 << 27

// Distribution identifies a key distribution.
type Distribution struct {
	// Name is "uniform" or "zipf".
	Name string
	// Alpha is the Zipf factor (ignored for uniform).
	Alpha float64
}

// Uniform returns the uniform distribution descriptor.
func Uniform() Distribution { return Distribution{Name: "uniform"} }

// Zipf returns a Zipfian distribution descriptor with the given factor.
func Zipf(alpha float64) Distribution { return Distribution{Name: "zipf", Alpha: alpha} }

// String renders the distribution like the paper's plot labels.
func (d Distribution) String() string {
	if d.Name == "uniform" {
		return "Uniform"
	}
	return fmt.Sprintf("Zipf a=%g", d.Alpha)
}

// PaperDistributions returns the four update patterns of Figure 3/4.
func PaperDistributions() []Distribution {
	return []Distribution{Uniform(), Zipf(1), Zipf(1.5), Zipf(2)}
}

// Generator produces a deterministic stream of keys in [1, Domain].
type Generator struct {
	rng    *rand.Rand
	domain int64

	zipf     bool
	alpha    float64
	oneMinus float64 // 1 - alpha
	scale    float64 // beta^(1-alpha) - 1   (alpha != 1)
	logBeta  float64 // ln beta              (alpha == 1)
}

// NewGenerator builds a generator for the distribution with its own seed;
// every benchmark thread gets one, so streams are independent and replayable.
func NewGenerator(d Distribution, domain int64, seed int64) *Generator {
	if domain <= 1 {
		domain = DefaultDomain
	}
	g := &Generator{rng: rand.New(rand.NewSource(seed)), domain: domain}
	if d.Name == "zipf" {
		g.zipf = true
		g.alpha = d.Alpha
		if d.Alpha == 1 {
			g.logBeta = math.Log(float64(domain))
		} else {
			g.oneMinus = 1 - d.Alpha
			g.scale = math.Pow(float64(domain), g.oneMinus) - 1
		}
	}
	return g
}

// Next returns the next key. Zipf sampling uses the continuous inverse-CDF
// of the truncated power law p(x) ~ x^-alpha on [1, beta]:
//
//	alpha != 1: x = (1 + u*(beta^(1-alpha)-1))^(1/(1-alpha))
//	alpha == 1: x = beta^u
//
// This is O(1) per sample and supports alpha = 1 exactly (where the rejection
// sampler of math/rand does not apply); the discrete Zipf distribution is
// approximated within a few percent on every rank, preserving the workload's
// shape.
func (g *Generator) Next() int64 {
	if !g.zipf {
		return 1 + g.rng.Int63n(g.domain)
	}
	u := g.rng.Float64()
	var x float64
	if g.alpha == 1 {
		x = math.Exp(u * g.logBeta)
	} else {
		x = math.Pow(1+u*g.scale, 1/g.oneMinus)
	}
	k := int64(x)
	if k < 1 {
		k = 1
	}
	if k > g.domain {
		k = g.domain
	}
	return k
}

// Fill writes n keys into out (allocating when nil) and returns it.
func (g *Generator) Fill(out []int64, n int) []int64 {
	if out == nil {
		out = make([]int64, 0, n)
	}
	for i := 0; i < n; i++ {
		out = append(out, g.Next())
	}
	return out
}
