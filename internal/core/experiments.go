package core

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/crawl"
	"repro/internal/metrics"
	"repro/internal/page"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

// ExperimentScale shrinks the paper-size experiments to tractable
// defaults for tests and benchmarks; cmd/pushbench can run full scale.
type ExperimentScale struct {
	Sites int // sites per set (paper: 100)
	Runs  int // repetitions per configuration (paper: 31)
	Seed  int64
	// Jobs is the total number of loads in flight, at any nesting depth:
	// a driver's site-level fan-out and the run-level fan-outs inside
	// every site unit share one budget of Jobs workers (see engine.go).
	// <=0 uses GOMAXPROCS, 1 runs strictly sequentially. Tables are
	// byte-identical for any value (results are collected in input
	// order).
	Jobs int

	benchCompat
}

// SmallScale is used by unit tests and benchmarks.
func SmallScale() ExperimentScale { return ExperimentScale{Sites: 12, Runs: 5, Seed: 1} }

// PaperScale matches the paper's configuration.
func PaperScale() ExperimentScale { return ExperimentScale{Sites: 100, Runs: 31, Seed: 1} }

// randomSites is the random-100 stand-in set at scale.
func randomSites(scale ExperimentScale) []*replay.Site {
	return corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
}

// --- The site job and the strategy grid ---
//
// Every table below is a site set, a strategy list and a render. The
// drivers run on siteJob: one unit per site, fanned out on one budget
// and collected in site order. Most of them run contrast on it, the
// paper's evaluation grid: per site, the dependency trace, then every
// strategy of a list against the no-push baseline.

// siteJob runs unit(tb, i) for each of n sites on one budget of
// scale.Jobs and returns the results in site order. Each unit gets a
// fresh testbed under scn with scale.Runs runs, whose Evaluate and Trace
// fan-outs draw on the same budget and are lent the site worker's warm
// RunContext, so the loads in flight across every site of the call stay
// within scale.Jobs.
func siteJob[T any](scale ExperimentScale, scn scenario.Scenario, n int, unit func(tb *Testbed, i int) T) []T {
	b := newBudget(scale.Jobs)
	return collectWith(b, n, &runContexts, nil, func(rc *RunContext, i int) T {
		tb := NewTestbed()
		tb.Scenario = scn
		tb.Runs = scale.Runs
		tb.budget = b
		tb.UseContext(rc)
		return unit(tb, i)
	})
}

// contrast evaluates every strategy of sts on every site under scn.
// With trace, each site's push orders come from the paper's dependency
// trace (min(5, Runs) loads without push); without, from the document
// order. Row i holds site i's evaluations in sts order; a driver that
// reports deltas puts the no-push baseline first.
func contrast(scale ExperimentScale, scn scenario.Scenario, sites []*replay.Site, sts []strategy.Strategy, trace bool) [][]*Evaluation {
	return siteJob(scale, scn, len(sites), func(tb *Testbed, i int) []*Evaluation {
		var tr *strategy.Trace
		if trace {
			tr = tb.Trace(sites[i], min(5, scale.Runs))
		}
		evs := make([]*Evaluation, len(sts))
		for j, st := range sts {
			evs[j] = tb.EvaluateStrategy(sites[i], st, tr)
		}
		return evs
	})
}

// medianDeltas returns per site the median PLT and SpeedIndex of column
// j minus those of the baseline in column 0, in milliseconds (negative
// = push better).
func medianDeltas(evs [][]*Evaluation, j int) (dPLT, dSI []float64) {
	for _, row := range evs {
		dPLT = append(dPLT, millis(row[j].MedianPLT-row[0].MedianPLT))
		dSI = append(dSI, millis(row[j].MedianSI-row[0].MedianSI))
	}
	return dPLT, dSI
}

// improvedRow is the row of per-site deltas xs: name, the share of
// sites below 0, the share at or above it, and the median.
func improvedRow(name string, xs []float64) []Cell {
	imp := metrics.FractionBelow(xs, 0)
	return []Cell{textCell(name), shareCell(imp), shareCell(1 - imp), ms1Cell(metrics.MedianFloat64(xs))}
}

// deltaRow is the row of two per-site delta columns: name, the share of
// sites below 0 in a and in b, then the median of a and of b.
func deltaRow(name string, a, b []float64) []Cell {
	return []Cell{
		textCell(name),
		shareCell(metrics.FractionBelow(a, 0)),
		shareCell(metrics.FractionBelow(b, 0)),
		ms1Cell(metrics.MedianFloat64(a)),
		ms1Cell(metrics.MedianFloat64(b)),
	}
}

// PopularStrategies returns the Sec. 5 strategy set in paper order.
func PopularStrategies() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.NoPush{},
		strategy.NoPushOptimized{},
		strategy.PushAll{},
		strategy.PushAllOptimized{},
		strategy.PushCritical{},
		strategy.PushCriticalOptimized{},
	}
}

// strategyTrio is the push contrast the fault and population sweeps
// report: the no-push baseline, naive push-all, and the paper's
// headline critical-path strategy.
func strategyTrio() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.NoPush{},
		strategy.PushAll{},
		strategy.PushCriticalOptimized{},
	}
}

// --- Fig. 1: adoption of H2 and Server Push over one year ---

// Fig1Adoption regenerates the two adoption series. The population is
// synthetic (see internal/crawl) with N domains standing in for the
// Alexa 1M.
func Fig1Adoption(n int, seed int64) *Table {
	pop := crawl.DefaultPopulation(n, seed)
	sc := crawl.NewScanner(seed, 0.01)
	series := sc.Study(pop)
	t := &Table{
		Title:  "Fig 1: HTTP/2 and Server Push adoption over 12 monthly scans",
		Header: []string{"month", "probed", "h2", "push"},
		Notes:  []string{fmt.Sprintf("population %d domains standing in for the Alexa 1M; calibrated 120K->240K H2, 400->800 push", n)},
	}
	for _, r := range series {
		t.add(countCell(r.Month), countCell(r.Probed), countCell(r.H2Count), countCell(r.PushCount))
	}
	return t
}

// --- Fig. 2a: testbed vs Internet variability ---

// Fig2aVariability compares the per-site standard error of PLT and
// SpeedIndex between the controlled DSL scenario and the Internet
// scenario, with and without push.
func Fig2aVariability(scale ExperimentScale) (*Table, error) {
	sites := randomSites(scale)
	t := &Table{
		Title:  "Fig 2a: std. error of PLT/SpeedIndex per site, testbed vs Internet",
		Header: []string{"config", "PLT sigma<50ms", "PLT sigma<100ms", "SI sigma<50ms", "SI sigma<100ms", "median PLT sigma (ms)"},
		Notes:  []string{"paper: testbed 85%/95% of sites under 50/100ms; Internet only 5%/14%"},
	}
	for _, env := range []struct {
		tag string
		scn scenario.Scenario
	}{{"tb", scenario.DSL()}, {"Inet", scenario.Internet()}} {
		evs := contrast(scale, env.scn, sites, []strategy.Strategy{strategy.PushAll{}, strategy.NoPush{}}, false)
		for j, name := range []string{"push", "no push"} {
			var plt, si []float64
			for _, row := range evs {
				plt = append(plt, millis(row[j].PLT.StdErr()))
				si = append(si, millis(row[j].SI.StdErr()))
			}
			t.add(
				textCell(name+" ("+env.tag+")"),
				shareCell(metrics.FractionBelow(plt, 50)),
				shareCell(metrics.FractionBelow(plt, 100)),
				shareCell(metrics.FractionBelow(si, 50)),
				shareCell(metrics.FractionBelow(si, 100)),
				ms1Cell(metrics.MedianFloat64(plt)),
			)
		}
	}
	return t, nil
}

// --- Fig. 2b / 3a / 3b: strategy deltas ---

// Fig2bPushVsNoPush reproduces the testbed validation: pushing the same
// objects as recorded vs. the no-push baseline.
func Fig2bPushVsNoPush(scale ExperimentScale) (*Table, error) {
	evs := contrast(scale, scenario.DSL(), randomSites(scale), []strategy.Strategy{strategy.NoPush{}, strategy.PushAll{}}, true)
	dPLT, dSI := medianDeltas(evs, 1)
	t := &Table{
		Title:  "Fig 2b: delta push vs no push (testbed), per-site medians",
		Header: []string{"metric", "improved (<0)", "no benefit (>=0)", "median delta (ms)"},
		Notes:  []string{"paper: no PLT benefit for 49% of sites, no SpeedIndex benefit for 35%"},
	}
	t.add(improvedRow("PLT", dPLT)...)
	t.add(improvedRow("SpeedIndex", dSI)...)
	return t, nil
}

// PushableObjects reproduces the Sec. 4.2 statistic on both site sets.
func PushableObjects(scale ExperimentScale) *Table {
	t := &Table{
		Title:  "Sec 4.2: fraction of sites with <20% pushable objects",
		Header: []string{"set", "sites", "<20% pushable", "median pushable"},
		Notes:  []string{"paper: top-100 52%, random-100 24%"},
	}
	for _, prof := range []corpus.Profile{corpus.TopProfile(), corpus.RandomProfile()} {
		sites := corpus.GenerateSet(prof, scale.Sites, scale.Seed)
		var fracs []float64
		low := 0
		for _, s := range sites {
			f := s.PushableFraction()
			fracs = append(fracs, f)
			if f < 0.2 {
				low++
			}
		}
		med := metrics.MedianFloat64(fracs)
		t.add(textCell(prof.Name), countCell(len(sites)), shareCell(float64(low)/float64(len(sites))), shareCell(med))
	}
	return t
}

// Fig3aPushAll evaluates push-all vs no-push on both sets.
func Fig3aPushAll(scale ExperimentScale) (*Table, error) {
	t := &Table{
		Title:  "Fig 3a: SpeedIndex delta, push all (computed order) vs no push",
		Header: []string{"set", "SI improved", "PLT improved", "median dSI (ms)", "median dPLT (ms)"},
		Notes:  []string{"paper: only 58% (top-100) / 45% (random-100) of sites benefit"},
	}
	for _, prof := range []corpus.Profile{corpus.TopProfile(), corpus.RandomProfile()} {
		sites := corpus.GenerateSet(prof, scale.Sites, scale.Seed)
		evs := contrast(scale, scenario.DSL(), sites, []strategy.Strategy{strategy.NoPush{}, strategy.PushAll{}}, true)
		dPLT, dSI := medianDeltas(evs, 1)
		t.add(deltaRow(prof.Name, dSI, dPLT)...)
	}
	return t, nil
}

// Fig3bPushAmount sweeps the number of pushed objects on the random set.
func Fig3bPushAmount(scale ExperimentScale) (*Table, error) {
	sts := []strategy.Strategy{
		strategy.NoPush{},
		strategy.PushFirstN{N: 1},
		strategy.PushFirstN{N: 5},
		strategy.PushFirstN{N: 10},
		strategy.PushFirstN{N: 15},
		strategy.PushAll{},
	}
	evs := contrast(scale, scenario.DSL(), randomSites(scale), sts, true)
	t := &Table{
		Title:  "Fig 3b: delta vs no push when pushing the first n objects (random-100)",
		Header: []string{"n", "PLT improved", "SI improved", "median dPLT (ms)", "median dSI (ms)"},
		Notes:  []string{"paper: pushing less reduces detrimental effects but rarely helps much"},
	}
	for j := 1; j < len(sts); j++ {
		dPLT, dSI := medianDeltas(evs, j)
		t.add(deltaRow(sts[j].Name(), dPLT, dSI)...)
	}
	return t, nil
}

// PushByTypeAnalysis reproduces the Sec. 4.2.1 object-type study.
func PushByTypeAnalysis(scale ExperimentScale) (*Table, error) {
	sts := []strategy.Strategy{
		strategy.NoPush{},
		strategy.PushByType{Kinds: []page.Kind{page.KindCSS}},
		strategy.PushByType{Kinds: []page.Kind{page.KindJS}},
		strategy.PushByType{Kinds: []page.Kind{page.KindImage}},
		strategy.PushByType{Kinds: []page.Kind{page.KindCSS, page.KindJS}},
		strategy.PushByType{Kinds: []page.Kind{page.KindCSS, page.KindImage}},
	}
	evs := contrast(scale, scenario.DSL(), randomSites(scale), sts, true)
	t := &Table{
		Title:  "Sec 4.2.1: pushing specific object types (random-100)",
		Header: []string{"type", "SI improved", "SI worse", "median dSI (ms)"},
		Notes:  []string{"paper: images worsen SpeedIndex for 74% of sites; best-type helps only 24% (SI) / 20% (PLT)"},
	}
	// Best type per site: the minimum of the five per-site median SI
	// deltas, counted as improved when below 0. There is no margin and
	// no significance test, so the minimum favours whichever type's
	// median happened to draw low.
	best := make([]float64, len(evs))
	for j := 1; j < len(sts); j++ {
		_, dSI := medianDeltas(evs, j)
		for i, v := range dSI {
			if j == 1 || v < best[i] {
				best[i] = v
			}
		}
		t.add(improvedRow(sts[j].Name(), dSI)...)
	}
	t.add(improvedRow("best type per site", best)...)
	return t, nil
}

// --- Fig. 4: synthetic sites with custom strategies ---

// Fig4Synthetic compares push-all and the custom (critical) strategy on
// s1-s10, relative to no push, with 95% confidence intervals.
func Fig4Synthetic(scale ExperimentScale) (*Table, error) {
	t := &Table{
		Title:  "Fig 4: custom strategies on synthetic sites s1-s10 (delta vs no push, avg of runs)",
		Header: []string{"site", "strategy", "dPLT (ms)", "dSI (ms)", "95% CI (ms)", "KB pushed"},
		Notes:  []string{"paper: custom pushes far fewer bytes for comparable gains (s1: 309KB vs 1057KB)"},
	}
	sites := corpus.SyntheticSites()
	sts := []strategy.Strategy{strategy.NoPush{}, strategy.PushAll{}, strategy.PushCritical{}}
	for i, evs := range contrast(scale, scenario.DSL(), sites, sts, false) {
		base := evs[0]
		for _, ev := range evs[1:] {
			t.add(
				textCell(sites[i].Name), textCell(ev.Strategy),
				msCell(millis(ev.PLT.Mean()-base.PLT.Mean())),
				msCell(millis(ev.SI.Mean()-base.SI.Mean())),
				msCell(millis(ev.SI.CI(0.95))),
				countCell(ev.BytesPushed/1024),
			)
		}
	}
	return t, nil
}

// --- Fig. 5b: interleaving motivating example ---

// Fig5Interleaving builds the paper's test page (CSS in head, body text
// varied from 10 to 90 KB) and compares no push, plain push and
// interleaving push. Only Runs, Seed and Jobs of scale are used; the
// page sweep is fixed.
func Fig5Interleaving(scale ExperimentScale) (*Table, error) {
	sizes := []int{10, 20, 30, 40, 50, 60, 70, 80, 90} // HTML KB
	rows := siteJob(scale, scenario.DSL(), len(sizes), func(tb *Testbed, i int) []Cell {
		kb := sizes[i]
		b := corpus.NewPage("fig5.test")
		b.CSS("/style.css", corpus.SimpleCSS([]string{"hero", "body-text"}, 120))
		b.Div("hero", 200)
		b.Text(1200, "body-text")
		if pad := kb*1024 - len(b.HTML()); pad > 0 {
			b.PadHTML(pad)
		}
		site := b.Build(fmt.Sprintf("fig5-%dKB", kb))
		base := site.Base.String()
		cssURL := "https://fig5.test/style.css"

		tb.Seed = scale.Seed
		noPush, noPushSite, noPushPlan := tb.forStrategy(site, strategy.NoPush{}, nil)
		evNo := noPush.Evaluate(noPushSite, noPushPlan, "no push")
		evPush := tb.Evaluate(site, replay.PushList(base, cssURL), "push")
		evInt := tb.Evaluate(site, replay.PushList(base, cssURL).
			WithInterleave(base, replay.InterleaveSpec{OffsetBytes: 4096, Critical: []string{cssURL}}),
			"interleaving")
		return []Cell{countCell(kb), msCell(millis(evNo.MedianSI)), msCell(millis(evPush.MedianSI)), msCell(millis(evInt.MedianSI))}
	})
	t := &Table{
		Title:  "Fig 5b: SpeedIndex vs HTML size for no push / push / interleaving",
		Header: []string{"html KB", "no push SI (ms)", "push SI (ms)", "interleaving SI (ms)"},
		Notes:  []string{"paper: no push and push grow with HTML size; interleaving stays flat and fastest"},
	}
	for _, row := range rows {
		t.add(row...)
	}
	return t, nil
}

// --- Fig. 6: the six strategies on w1-w20 ---

// Fig6Popular evaluates the six strategies on the modelled w1-w20 sites,
// reporting average relative SpeedIndex change vs no push with 99.5%
// confidence half-widths, plus pushed bytes. An unknown id is an error.
func Fig6Popular(ids []string, scale ExperimentScale) (*Table, error) {
	if len(ids) == 0 {
		ids = corpus.PopularSiteIDs()
	}
	sites := make([]*replay.Site, len(ids))
	for i, id := range ids {
		if sites[i] = corpus.PopularSite(id); sites[i] == nil {
			return nil, fmt.Errorf("core: unknown popular site %q (have: %s)", id, strings.Join(corpus.PopularSiteIDs(), ", "))
		}
	}
	t := &Table{
		Title:  "Fig 6: strategies on modelled popular sites (relative SpeedIndex change vs no push)",
		Header: []string{"site", "strategy", "dSI", "dPLT", "99.5% CI (ms)", "KB pushed"},
		Notes: []string{
			"paper: w1 -68.9% / w2 -29.7% / w16 -19.7% with push critical optimized;",
			"w7/w8 limited by blocking JS, w9 favours push all, w10 image contention, w17 dilution",
		},
	}
	for i, evs := range contrast(scale, scenario.DSL(), sites, PopularStrategies(), true) {
		base := evs[0]
		for _, ev := range evs[1:] {
			t.add(
				textCell(ids[i]), textCell(ev.Strategy),
				shareCell(metrics.RelChange(ev.SI.Mean(), base.SI.Mean())),
				shareCell(metrics.RelChange(ev.PLT.Mean(), base.PLT.Mean())),
				msCell(millis(ev.SI.CI(0.995))),
				countCell(ev.BytesPushed/1024),
			)
		}
	}
	return t, nil
}
