// Package crawl reproduces the adoption study behind Fig. 1 of the paper
// (and the authors' prior work, netray.io): monthly protocol scans of an
// Alexa-1M-like population counting HTTP/2 and Server Push support.
//
// The real study probes a million live domains; offline we substitute a
// synthetic population whose adoption dynamics are calibrated to the
// figure: H2 support grows from ~120K to ~240K sites over 2017 while
// Server Push grows from ~400 to ~800 — three orders of magnitude lower.
// The scanner performs the same per-domain protocol probe the real
// crawler would (an ALPN-style capability negotiation against the
// domain's modelled server), so the measurement pipeline is exercised
// end to end.
package crawl

import (
	"math/rand"
)

// Months in the study (Jan..Dec 2017 in the paper).
const Months = 12

// domain is one population member. AdoptH2/AdoptPush give the first
// month (1-based) in which the domain's server speaks H2 / uses push; 0
// means never during the study.
type domain struct {
	Rank      int
	AdoptH2   int
	AdoptPush int
}

// server answers the scanner's probe for a given month: whether ALPN
// offers h2 and whether the landing page response carries PUSH_PROMISE.
func (d *domain) server(month int) probeResponse {
	return probeResponse{
		ALPNH2:   d.AdoptH2 != 0 && month >= d.AdoptH2,
		UsesPush: d.AdoptPush != 0 && month >= d.AdoptPush,
	}
}

// probeResponse is what one scan of one domain observes.
type probeResponse struct {
	ALPNH2   bool
	UsesPush bool
}

// Population is the scan target list, rank ordered.
type Population []domain

// synthPopulation generates n domains with adoption calibrated to
// Fig. 1: h2Start/h2End and pushStart/pushEnd domains supporting each
// feature in the first and last month.
func synthPopulation(n int, seed int64, h2Start, h2End, pushStart, pushEnd int) Population {
	rng := rand.New(rand.NewSource(seed))
	pop := make(Population, n)
	for i := range pop {
		pop[i].Rank = i + 1
	}
	// h2Start domains support H2 from month 1; the remaining adopters
	// spread uniformly over months 2..12 (the figure is near-linear).
	assign := func(set func(i int, month int), start, end int) {
		perm := rng.Perm(n)
		for j := 0; j < start && j < n; j++ {
			set(perm[j], 1)
		}
		extra := end - start
		for j := start; j < start+extra && j < n; j++ {
			set(perm[j], 2+rng.Intn(Months-1))
		}
	}
	assign(func(i, m int) { pop[i].AdoptH2 = m }, h2Start, h2End)
	// Push requires H2: initial push adopters are drawn from the domains
	// already speaking H2 in month 1, later adopters from all H2 domains.
	var earlyH2, laterH2 []int
	for i := range pop {
		switch {
		case pop[i].AdoptH2 == 1:
			earlyH2 = append(earlyH2, i)
		case pop[i].AdoptH2 > 1:
			laterH2 = append(laterH2, i)
		}
	}
	rng.Shuffle(len(earlyH2), func(a, b int) { earlyH2[a], earlyH2[b] = earlyH2[b], earlyH2[a] })
	rng.Shuffle(len(laterH2), func(a, b int) { laterH2[a], laterH2[b] = laterH2[b], laterH2[a] })
	cnt := 0
	for _, i := range earlyH2 {
		if cnt >= pushStart {
			break
		}
		pop[i].AdoptPush = 1
		cnt++
	}
	for _, i := range append(earlyH2[cnt:], laterH2...) {
		if cnt >= pushEnd {
			break
		}
		month := 2 + rng.Intn(Months-1)
		if month < pop[i].AdoptH2 {
			month = pop[i].AdoptH2
		}
		pop[i].AdoptPush = month
		cnt++
	}
	return pop
}

// DefaultPopulation is calibrated to the paper's Fig. 1 (scaled
// population size n; counts scale proportionally when n != 1M).
func DefaultPopulation(n int, seed int64) Population {
	scale := float64(n) / 1_000_000
	return synthPopulation(n, seed,
		int(120_000*scale), int(240_000*scale),
		int(400*scale)+1, int(800*scale)+1)
}

// ScanResult is one monthly crawl's outcome.
type ScanResult struct {
	Month     int
	H2Count   int
	PushCount int
	Probed    int
}

// Scanner runs monthly scans over a population.
type Scanner struct {
	// FailureRate models unreachable domains per scan (real crawls never
	// reach the whole list).
	FailureRate float64
	rng         *rand.Rand
}

// NewScanner builds a scanner with deterministic failures.
func NewScanner(seed int64, failureRate float64) *Scanner {
	return &Scanner{FailureRate: failureRate, rng: rand.New(rand.NewSource(seed))}
}

// scan probes every domain once for the given month.
func (sc *Scanner) scan(pop Population, month int) ScanResult {
	res := ScanResult{Month: month}
	for i := range pop {
		if sc.FailureRate > 0 && sc.rng.Float64() < sc.FailureRate {
			continue
		}
		res.Probed++
		pr := pop[i].server(month)
		if pr.ALPNH2 {
			res.H2Count++
		}
		if pr.UsesPush {
			res.PushCount++
		}
	}
	return res
}

// Study runs the full 12-month series.
func (sc *Scanner) Study(pop Population) []ScanResult {
	out := make([]ScanResult, 0, Months)
	for m := 1; m <= Months; m++ {
		out = append(out, sc.scan(pop, m))
	}
	return out
}
