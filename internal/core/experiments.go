package core

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/corpus"
	"repro/internal/crawl"
	"repro/internal/metrics"
	"repro/internal/page"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func (t *Table) String() string {
	var sb strings.Builder
	t.Print(&sb)
	return sb.String()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.0f", float64(d)/float64(time.Millisecond)) }

func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

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
	// Exec selects the executor running the site-level fan-out: the
	// zero value is the in-process pool, ExecMultiProcess shards units
	// across worker child processes. Tables are byte-identical across
	// executors and shard counts.
	Exec Exec

	benchCompat
}

// SmallScale is used by unit tests and benchmarks.
func SmallScale() ExperimentScale { return ExperimentScale{Sites: 12, Runs: 5, Seed: 1} }

// PaperScale matches the paper's configuration.
func PaperScale() ExperimentScale { return ExperimentScale{Sites: 100, Runs: 31, Seed: 1} }

// newTestbed builds the per-site testbed a driver's unit evaluates on.
// Its Evaluate and Trace fan-outs draw on b, the budget of the driver
// call the unit runs under, so the loads in flight across all of the
// call's sites stay within scale.Jobs.
func (sc ExperimentScale) newTestbed(b *budget) *Testbed {
	tb := NewTestbed()
	tb.Runs = sc.Runs
	tb.budget = b
	return tb
}

// newTestbedFor is newTestbed under an arbitrary measurement scenario.
func (sc ExperimentScale) newTestbedFor(scn scenario.Scenario, b *budget) *Testbed {
	tb := sc.newTestbed(b)
	tb.Scenario = scn
	return tb
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
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Month), fmt.Sprint(r.Probed), fmt.Sprint(r.H2Count), fmt.Sprint(r.PushCount),
		})
	}
	return t
}

// --- Fig. 2a: testbed vs Internet variability ---

// fig2aUnit builds one site's evaluation unit for Fig2aVariability:
// full PLT/SI samples under scn, with or without push.
func fig2aUnit(sites []*replay.Site, scn scenario.Scenario, push bool, scale ExperimentScale, b *budget) func(rc *RunContext, i int) evalSamples {
	return func(rc *RunContext, i int) evalSamples {
		tb := scale.newTestbedFor(scn, b)
		tb.UseContext(rc)
		var st strategy.Strategy = strategy.NoPush{}
		if push {
			st = strategy.PushAll{}
		}
		ev := tb.EvaluateStrategy(sites[i], st, nil)
		return evalSamples{plt: ev.PLT, si: ev.SI}
	}
}

// Fig2aVariability compares the per-site standard error of PLT and
// SpeedIndex between the controlled DSL scenario and the Internet
// scenario, with and without push.
func Fig2aVariability(scale ExperimentScale) (*Table, error) {
	sites := corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
	type cell struct{ plt, si []float64 }
	run := func(scn scenario.Scenario, push bool) (cell, error) {
		b := newBudget(scale.Jobs)
		unit := fig2aUnit(sites, scn, push, scale, b)
		evs, err := fig2aJob.collect(scale,
			fig2aParams{Scn: scn, Push: push, Scale: scaleParams(scale)},
			len(sites), func() []evalSamples {
				return collectWith(b, len(sites), &runContexts, nil, unit)
			})
		if err != nil {
			return cell{}, err
		}
		var c cell
		for i := range evs {
			c.plt = append(c.plt, float64(evs[i].plt.StdErr())/float64(time.Millisecond))
			c.si = append(c.si, float64(evs[i].si.StdErr())/float64(time.Millisecond))
		}
		return c, nil
	}
	t := &Table{
		Title:  "Fig 2a: std. error of PLT/SpeedIndex per site, testbed vs Internet",
		Header: []string{"config", "PLT sigma<50ms", "PLT sigma<100ms", "SI sigma<50ms", "SI sigma<100ms", "median PLT sigma (ms)"},
		Notes:  []string{"paper: testbed 85%/95% of sites under 50/100ms; Internet only 5%/14%"},
	}
	for _, cfg := range []struct {
		name string
		scn  scenario.Scenario
		push bool
	}{
		{"push (tb)", scenario.DSL(), true},
		{"no push (tb)", scenario.DSL(), false},
		{"push (Inet)", scenario.Internet(), true},
		{"no push (Inet)", scenario.Internet(), false},
	} {
		c, err := run(cfg.scn, cfg.push)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cfg.name,
			pct(metrics.FractionBelow(c.plt, 50)),
			pct(metrics.FractionBelow(c.plt, 100)),
			pct(metrics.FractionBelow(c.si, 50)),
			pct(metrics.FractionBelow(c.si, 100)),
			fmt.Sprintf("%.1f", metrics.MedianFloat64(c.plt)),
		})
	}
	return t, nil
}

// --- Fig. 2b / 3a / 3b: strategy deltas ---

// deltaUnit builds one site's evaluation unit for deltaVsNoPush.
func deltaUnit(sites []*replay.Site, st strategy.Strategy, scale ExperimentScale, b *budget, trace bool) func(rc *RunContext, i int) deltaResult {
	return func(rc *RunContext, i int) deltaResult {
		site := sites[i]
		tb := scale.newTestbed(b)
		tb.UseContext(rc)
		var tr *strategy.Trace
		if trace {
			tr = tb.Trace(site, min(5, scale.Runs))
		}
		baseEv := tb.EvaluateStrategy(site, strategy.NoPush{}, nil)
		ev := tb.EvaluateStrategy(site, st, tr)
		return deltaResult{
			plt: float64(ev.MedianPLT-baseEv.MedianPLT) / float64(time.Millisecond),
			si:  float64(ev.MedianSI-baseEv.MedianSI) / float64(time.Millisecond),
		}
	}
}

// deltaVsNoPush evaluates a strategy and the no-push baseline per site
// and returns per-site median deltas in milliseconds (negative = push
// better). sites must be the deterministic GenerateSet of prof at this
// scale — worker children rebuild the same set from prof's name.
func deltaVsNoPush(prof corpus.Profile, sites []*replay.Site, st strategy.Strategy, scale ExperimentScale, trace bool) (dPLT, dSI []float64, err error) {
	b := newBudget(scale.Jobs)
	unit := deltaUnit(sites, st, scale, b, trace)
	deltas, err := deltaJob.collect(scale,
		deltaParams{Profile: prof.Name, Strategy: specFor(st), Trace: trace, Scale: scaleParams(scale)},
		len(sites), func() []deltaResult {
			return collectWith(b, len(sites), &runContexts, nil, unit)
		})
	if err != nil {
		return nil, nil, err
	}
	for _, d := range deltas {
		dPLT = append(dPLT, d.plt)
		dSI = append(dSI, d.si)
	}
	return dPLT, dSI, nil
}

// Fig2bPushVsNoPush reproduces the testbed validation: pushing the same
// objects as recorded vs. the no-push baseline.
func Fig2bPushVsNoPush(scale ExperimentScale) (*Table, error) {
	prof := corpus.RandomProfile()
	sites := corpus.GenerateSet(prof, scale.Sites, scale.Seed)
	dPLT, dSI, err := deltaVsNoPush(prof, sites, strategy.PushAll{}, scale, true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 2b: delta push vs no push (testbed), per-site medians",
		Header: []string{"metric", "improved (<0)", "no benefit (>=0)", "median delta (ms)"},
		Notes:  []string{"paper: no PLT benefit for 49% of sites, no SpeedIndex benefit for 35%"},
	}
	add := func(name string, xs []float64) {
		med := metrics.MedianFloat64(xs)
		imp := metrics.FractionBelow(xs, 0)
		t.Rows = append(t.Rows, []string{name, pct(imp), pct(1 - imp), fmt.Sprintf("%.1f", med)})
	}
	add("PLT", dPLT)
	add("SpeedIndex", dSI)
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
		t.Rows = append(t.Rows, []string{
			prof.Name, fmt.Sprint(len(sites)),
			pct(float64(low) / float64(len(sites))), pct(med),
		})
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
		dPLT, dSI, err := deltaVsNoPush(prof, sites, strategy.PushAll{}, scale, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			prof.Name,
			pct(metrics.FractionBelow(dSI, 0)),
			pct(metrics.FractionBelow(dPLT, 0)),
			fmt.Sprintf("%.1f", metrics.MedianFloat64(dSI)),
			fmt.Sprintf("%.1f", metrics.MedianFloat64(dPLT)),
		})
	}
	return t, nil
}

// Fig3bPushAmount sweeps the number of pushed objects on the random set.
func Fig3bPushAmount(scale ExperimentScale) (*Table, error) {
	prof := corpus.RandomProfile()
	sites := corpus.GenerateSet(prof, scale.Sites, scale.Seed)
	t := &Table{
		Title:  "Fig 3b: delta vs no push when pushing the first n objects (random-100)",
		Header: []string{"n", "PLT improved", "SI improved", "median dPLT (ms)", "median dSI (ms)"},
		Notes:  []string{"paper: pushing less reduces detrimental effects but rarely helps much"},
	}
	strategies := []strategy.Strategy{
		strategy.PushFirstN{N: 1},
		strategy.PushFirstN{N: 5},
		strategy.PushFirstN{N: 10},
		strategy.PushFirstN{N: 15},
		strategy.PushAll{},
	}
	for _, st := range strategies {
		dPLT, dSI, err := deltaVsNoPush(prof, sites, st, scale, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			st.Name(),
			pct(metrics.FractionBelow(dPLT, 0)),
			pct(metrics.FractionBelow(dSI, 0)),
			fmt.Sprintf("%.1f", metrics.MedianFloat64(dPLT)),
			fmt.Sprintf("%.1f", metrics.MedianFloat64(dSI)),
		})
	}
	return t, nil
}

// PushByTypeAnalysis reproduces the Sec. 4.2.1 object-type study.
func PushByTypeAnalysis(scale ExperimentScale) (*Table, error) {
	prof := corpus.RandomProfile()
	sites := corpus.GenerateSet(prof, scale.Sites, scale.Seed)
	t := &Table{
		Title:  "Sec 4.2.1: pushing specific object types (random-100)",
		Header: []string{"type", "SI improved", "SI worse", "median dSI (ms)"},
		Notes:  []string{"paper: images worsen SpeedIndex for 74% of sites; best-type helps only 24% (SI) / 20% (PLT)"},
	}
	types := []strategy.Strategy{
		strategy.PushByType{Kinds: []page.Kind{page.KindCSS}},
		strategy.PushByType{Kinds: []page.Kind{page.KindJS}},
		strategy.PushByType{Kinds: []page.Kind{page.KindImage}},
		strategy.PushByType{Kinds: []page.Kind{page.KindCSS, page.KindJS}},
		strategy.PushByType{Kinds: []page.Kind{page.KindCSS, page.KindImage}},
	}
	perSiteBest := make([]float64, scale.Sites)
	for i := range perSiteBest {
		perSiteBest[i] = 1e18
	}
	for _, st := range types {
		_, dSI, err := deltaVsNoPush(prof, sites, st, scale, true)
		if err != nil {
			return nil, err
		}
		for i, v := range dSI {
			if v < perSiteBest[i] {
				perSiteBest[i] = v
			}
		}
		t.Rows = append(t.Rows, []string{
			st.Name(),
			pct(metrics.FractionBelow(dSI, 0)),
			pct(1 - metrics.FractionBelow(dSI, 0)),
			fmt.Sprintf("%.1f", metrics.MedianFloat64(dSI)),
		})
	}
	// Best-type per site: how many sites improve even with their best
	// single-type strategy (by a meaningful margin).
	t.Rows = append(t.Rows, []string{
		"best type per site",
		pct(metrics.FractionBelow(perSiteBest, 0)),
		pct(1 - metrics.FractionBelow(perSiteBest, 0)),
		fmt.Sprintf("%.1f", metrics.MedianFloat64(perSiteBest)),
	})
	return t, nil
}

// --- Fig. 4: synthetic sites with custom strategies ---

// fig4Unit builds one synthetic site's row fragment for Fig4Synthetic.
func fig4Unit(sites []*replay.Site, scale ExperimentScale, b *budget) func(rc *RunContext, i int) [][]string {
	return func(rc *RunContext, i int) [][]string {
		site := sites[i]
		tb := scale.newTestbed(b)
		tb.UseContext(rc)
		baseEv := tb.EvaluateStrategy(site, strategy.NoPush{}, nil)
		var rows [][]string
		for _, st := range []strategy.Strategy{strategy.PushAll{}, strategy.PushCritical{}} {
			ev := tb.EvaluateStrategy(site, st, nil)
			rows = append(rows, []string{
				site.Name, st.Name(),
				fmt.Sprintf("%.0f", float64(ev.PLT.Mean()-baseEv.PLT.Mean())/1e6),
				fmt.Sprintf("%.0f", float64(ev.SI.Mean()-baseEv.SI.Mean())/1e6),
				ms(ev.SI.CI(0.95)),
				fmt.Sprintf("%d", ev.BytesPushed/1024),
			})
		}
		return rows
	}
}

// Fig4Synthetic compares push-all and the custom (critical) strategy on
// s1-s10, relative to no push, with 95% confidence intervals.
func Fig4Synthetic(scale ExperimentScale) (*Table, error) {
	t := &Table{
		Title:  "Fig 4: custom strategies on synthetic sites s1-s10 (delta vs no push, avg of runs)",
		Header: []string{"site", "strategy", "dPLT (ms)", "dSI (ms)", "95% CI (ms)", "KB pushed"},
		Notes:  []string{"paper: custom pushes far fewer bytes for comparable gains (s1: 309KB vs 1057KB)"},
	}
	sites := corpus.SyntheticSites()
	b := newBudget(scale.Jobs)
	unit := fig4Unit(sites, scale, b)
	rowsBySite, err := fig4Job.collect(scale, fig4Params{Scale: scaleParams(scale)},
		len(sites), func() [][][]string {
			return collectWith(b, len(sites), &runContexts, nil, unit)
		})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowsBySite {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// --- Fig. 5b: interleaving motivating example ---

// fig5Sizes is the HTML-size sweep of the Fig. 5b test page, in KB.
func fig5Sizes() []int { return []int{10, 20, 30, 40, 50, 60, 70, 80, 90} }

// fig5Unit builds one HTML-size row for Fig5Interleaving. Each
// testbed's run-level fan-outs draw on workers.
func fig5Unit(runs int, seed int64, workers *budget) func(rc *RunContext, i int) []string {
	sizes := fig5Sizes()
	return func(rc *RunContext, i int) []string {
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

		tb := NewTestbed()
		tb.Runs = runs
		tb.Seed = seed
		tb.budget = workers
		tb.UseContext(rc)
		noPushCfg := *tb
		noPushCfg.Browser.EnablePush = false
		evNo := noPushCfg.Evaluate(site, replay.NoPush(), "no push")
		evPush := tb.Evaluate(site, replay.PushList(base, cssURL), "push")
		evInt := tb.Evaluate(site, replay.PushList(base, cssURL).
			WithInterleave(base, replay.InterleaveSpec{OffsetBytes: 4096, Critical: []string{cssURL}}),
			"interleaving")
		return []string{
			fmt.Sprint(kb), ms(evNo.MedianSI), ms(evPush.MedianSI), ms(evInt.MedianSI),
		}
	}
}

// Fig5Interleaving builds the paper's test page (CSS in head, body text
// varied from 10 to 90 KB) and compares no push, plain push and
// interleaving push. Only Runs, Seed, Jobs and Exec of scale
// are used; the page sweep is fixed.
func Fig5Interleaving(scale ExperimentScale) (*Table, error) {
	t := &Table{
		Title:  "Fig 5b: SpeedIndex vs HTML size for no push / push / interleaving",
		Header: []string{"html KB", "no push SI (ms)", "push SI (ms)", "interleaving SI (ms)"},
		Notes:  []string{"paper: no push and push grow with HTML size; interleaving stays flat and fastest"},
	}
	sizes := fig5Sizes()
	b := newBudget(scale.Jobs)
	unit := fig5Unit(scale.Runs, scale.Seed, b)
	rows, err := fig5Job.collect(scale,
		fig5Params{Runs: scale.Runs, Seed: scale.Seed},
		len(sizes), func() [][]string {
			return collectWith(b, len(sizes), &runContexts, nil, unit)
		})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// --- Fig. 6: the six strategies on w1-w20 ---

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

// fig6Unit builds one popular site's row fragment for Fig6Popular.
func fig6Unit(ids []string, scale ExperimentScale, b *budget) func(rc *RunContext, i int) [][]string {
	return func(rc *RunContext, i int) [][]string {
		site := corpus.PopularSite(ids[i])
		if site == nil {
			return nil
		}
		tb := scale.newTestbed(b)
		tb.UseContext(rc)
		tr := tb.Trace(site, min(5, scale.Runs))
		baseEv := tb.EvaluateStrategy(site, strategy.NoPush{}, nil)
		var rows [][]string
		for _, st := range PopularStrategies() {
			if _, ok := st.(strategy.NoPush); ok {
				continue
			}
			ev := tb.EvaluateStrategy(site, st, tr)
			dSI := metrics.RelChange(ev.SI.Mean(), baseEv.SI.Mean())
			dPLT := metrics.RelChange(ev.PLT.Mean(), baseEv.PLT.Mean())
			rows = append(rows, []string{
				ids[i], st.Name(),
				pct(dSI), pct(dPLT),
				ms(ev.SI.CI(0.995)),
				fmt.Sprintf("%d", ev.BytesPushed/1024),
			})
		}
		return rows
	}
}

// Fig6Popular evaluates the six strategies on the modelled w1-w20 sites,
// reporting average relative SpeedIndex change vs no push with 99.5%
// confidence half-widths, plus pushed bytes.
func Fig6Popular(ids []string, scale ExperimentScale) (*Table, error) {
	if len(ids) == 0 {
		ids = corpus.PopularSiteIDs()
	}
	t := &Table{
		Title:  "Fig 6: strategies on modelled popular sites (relative SpeedIndex change vs no push)",
		Header: []string{"site", "strategy", "dSI", "dPLT", "99.5% CI (ms)", "KB pushed"},
		Notes: []string{
			"paper: w1 -68.9% / w2 -29.7% / w16 -19.7% with push critical optimized;",
			"w7/w8 limited by blocking JS, w9 favours push all, w10 image contention, w17 dilution",
		},
	}
	b := newBudget(scale.Jobs)
	unit := fig6Unit(ids, scale, b)
	rowsBySite, err := fig6Job.collect(scale,
		fig6Params{IDs: ids, Scale: scaleParams(scale)},
		len(ids), func() [][][]string {
			return collectWith(b, len(ids), &runContexts, nil, unit)
		})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowsBySite {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}
