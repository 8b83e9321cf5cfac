package core

import (
	"fmt"
	"time"

	"repro/internal/browser"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// Population-scale sweeps: instead of one client on one access link,
// a unit of work here is one *population run* — N clients, each with
// its own browser, connections and congestion state, loading pages
// concurrently on a single simulator while all their traffic contends
// in one shared bottleneck queue (netem.Topology). The engine fans
// (client-count, strategy, run) units across the usual worker pool;
// each unit folds its loads' scalars into a cell of mergeable sketches
// (metrics.Sketch) and the cells are merged in unit order, so
// aggregation memory is O(units), not O(clients x runs), and because
// merging is commutative the output is byte-identical at any -jobs.

// populationStrategies is the push contrast the population tables
// report: the no-push baseline, naive push-all, and the paper's
// headline critical-path strategy (same trio as the fault sweep).
func populationStrategies() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.NoPush{},
		strategy.PushAll{},
		strategy.PushCriticalOptimized{},
	}
}

// popCell streams one (client-count, strategy) cell of a population
// table: quantile sketches for PLT and SpeedIndex plus completion
// counters. Everything in it merges commutatively.
type popCell struct {
	plt      metrics.Sketch
	si       metrics.Sketch
	loads    int64
	complete int64
}

func (c *popCell) mergeFrom(o *popCell) {
	c.plt.MergeFrom(&o.plt)
	c.si.MergeFrom(&o.si)
	c.loads += o.loads
	c.complete += o.complete
}

// popSlot is one pooled client seat: its replay farm and browser
// loader, reused across every population run executed on the worker
// state that owns it.
type popSlot struct {
	farm *replay.Farm
	ld   *browser.Loader
}

// popWorker is the state one population unit simulates on: the
// simulator and shared-bottleneck topology (reset per unit), the pooled
// client seats and the arrival-offset scratch. It holds no results. The
// engine owns it: pool workers check it out of the popWorkers free list
// and release it when the pool drains (see engine.go), so every preset
// and sweep call after the first runs on seats that are already grown.
// One goroutine uses it at a time.
type popWorker struct {
	sim     *sim.Sim
	topo    *netem.Topology
	slots   []popSlot
	offsets []time.Duration
}

// popStart launches one client slot's page load. Static so staggered
// arrivals schedule through sim.AtCall without per-client closures.
func popStart(arg any) { arg.(*browser.Loader).Start() }

// runUnit executes one population run: count clients loading their
// assigned sites concurrently under st on one shared bottleneck, their
// outcomes folded into cell. seed fixes the simulator and the arrival
// stagger; the same (count, run) pair uses the same seed for every
// strategy, so strategies are compared under identical contention
// conditions.
func (w *popWorker) runUnit(shared netem.SharedProfile, cell *popCell,
	sites []*replay.Site, plans []replay.Plan, cfg browser.Config, run int, seed int64) {
	if w.sim == nil {
		w.sim = sim.New(seed)
		w.topo = netem.NewTopology(w.sim, shared)
	} else {
		w.sim.Reset(seed)
		w.topo.Reset(shared)
	}
	w.offsets = shared.ArrivalOffsets(seed, w.offsets)
	for len(w.slots) < shared.Clients {
		w.slots = append(w.slots, popSlot{})
	}
	for i := 0; i < shared.Clients; i++ {
		net := w.topo.Client(i)
		siteIdx := (run + i) % len(sites)
		slot := &w.slots[i]
		if slot.farm == nil {
			slot.farm = replay.NewFarm(w.sim, net, sites[siteIdx], plans[siteIdx])
			slot.ld = browser.New(w.sim, slot.farm, cfg)
		} else {
			slot.farm.Reset(w.sim, net, sites[siteIdx], plans[siteIdx])
			slot.ld.Reset(w.sim, slot.farm, cfg)
		}
		w.sim.AtCall(w.offsets[i], popStart, slot.ld)
	}
	w.sim.Run()
	// Scalars are extracted before the slots are recycled.
	for i := 0; i < shared.Clients; i++ {
		r := w.slots[i].ld.Result()
		cell.plt.Add(r.PLT)
		cell.si.Add(r.SpeedIndex)
		cell.loads++
		if r.Completed {
			cell.complete++
		}
	}
}

// popPrep is a site set with every population strategy applied to it:
// per strategy the applied sites, their plans and the browser config.
type popPrep struct {
	sts     []strategy.Strategy
	applied [][]*replay.Site
	plans   [][]replay.Plan
	cfgs    []browser.Config
}

// populationPrep applies every strategy to every site once, up front,
// and forces the parse-once Prepared state: the applied sites and the
// plans (with the lowering each plan carries) are shared read-only
// across all workers of every population.
func populationPrep(sts []strategy.Strategy, sites []*replay.Site) popPrep {
	prep := popPrep{
		sts:     sts,
		applied: make([][]*replay.Site, len(sts)),
		plans:   make([][]replay.Plan, len(sts)),
		cfgs:    make([]browser.Config, len(sts)),
	}
	for sj, st := range sts {
		prep.applied[sj] = make([]*replay.Site, len(sites))
		prep.plans[sj] = make([]replay.Plan, len(sites))
		prep.cfgs[sj] = browser.DefaultConfig()
		switch st.(type) {
		case strategy.NoPush, strategy.NoPushOptimized:
			prep.cfgs[sj].EnablePush = false
		}
		for i, site := range sites {
			runSite, plan := st.Apply(site, nil)
			runSite.Prepared()
			prep.applied[sj][i] = runSite
			prep.plans[sj][i] = plan
		}
	}
	return prep
}

// popUnit builds one population's unit: unit u is the (client-count,
// strategy, run) triple popAddr decodes, run on whatever worker state
// the pool hands it and reported as a cell of its own.
func popUnit(pop scenario.Population, counts []int, popIdx int, prep popPrep, scale ExperimentScale) func(w *popWorker, u int) popCell {
	return func(w *popWorker, u int) popCell {
		ci, sj, run := popAddr(u, len(prep.sts), scale.Runs)
		shared := pop.Shared
		shared.Clients = counts[ci]
		var cell popCell
		w.runUnit(shared, &cell, prep.applied[sj], prep.plans[sj], prep.cfgs[sj],
			run, popSeed(scale.Seed, popIdx, ci, run))
		return cell
	}
}

// popAddr decodes unit index u into its (client-count, strategy, run)
// coordinates.
func popAddr(u, nStrategies, runs int) (ci, sj, run int) {
	ci = u / (nStrategies * runs)
	sj = (u % (nStrategies * runs)) / runs
	run = u % runs
	return
}

// popSeed is the per-unit simulator seed. It depends on (population,
// count, run) but not on the strategy: all strategies contend under
// identical arrivals.
func popSeed(seed int64, popIdx, ci, run int) int64 {
	return seed*1_000_003 + int64(popIdx)*104_729 +
		int64(ci)*15_485_863 + int64(run)*7919
}

// PopulationSweepNames resolves population preset names (nil or empty
// = every preset) and runs PopulationSweep over them.
func PopulationSweepNames(names []string, counts []int, scale ExperimentScale) ([]*Table, error) {
	var pops []scenario.Population
	if len(names) == 0 {
		pops = scenario.Populations()
	} else {
		for _, name := range names {
			p, err := scenario.PopulationByName(name)
			if err != nil {
				return nil, err
			}
			pops = append(pops, p)
		}
	}
	return PopulationSweep(pops, counts, scale)
}

// PopulationSweep runs the strategy contrast at each client count on
// each population preset and renders one table per preset: rows are
// (strategy, clients) cells with median/p95 PLT and SpeedIndex, a
// fairness ratio (PLT p95/p50 — how much the unlucky clients pay) and
// completion counts. Output is byte-identical for any scale.Jobs.
func PopulationSweep(pops []scenario.Population, counts []int, scale ExperimentScale) ([]*Table, error) {
	if len(pops) == 0 {
		return nil, fmt.Errorf("core: population sweep needs at least one population")
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("core: population sweep needs at least one client count")
	}
	for _, n := range counts {
		if n <= 0 {
			return nil, fmt.Errorf("core: client count must be positive, got %d", n)
		}
	}
	for _, pop := range pops {
		if err := pop.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	sts := populationStrategies()
	sites := corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
	prep := populationPrep(sts, sites)

	tables := make([]*Table, 0, len(pops))
	for popIdx, pop := range pops {
		nUnits := len(counts) * len(sts) * scale.Runs
		cells := collectWith(newBudget(scale.Jobs), nUnits, &popWorkers, nil, popUnit(pop, counts, popIdx, prep, scale))
		// One cell per unit, merged in unit order; popCell merges
		// commutatively, so the totals do not depend on which worker ran
		// which unit.
		total := make([]popCell, len(counts)*len(sts))
		for u := range cells {
			ci, sj, _ := popAddr(u, len(sts), scale.Runs)
			total[ci*len(sts)+sj].mergeFrom(&cells[u])
		}

		t := &Table{
			Title:  fmt.Sprintf("Population sweep: %s — strategy x clients on one shared bottleneck", pop.Name),
			Header: []string{"strategy", "clients", "median PLT (ms)", "p95 PLT (ms)", "median SI (ms)", "p95 SI (ms)", "PLT p95/p50", "complete"},
			Notes: []string{
				pop.Info,
				fmt.Sprintf("shared %s/%s Mbit/s, RTT %v, queue %d KB; access %s/%s Mbit/s, RTT %v; arrivals spread over %v",
					mbit(pop.Shared.DownRate), mbit(pop.Shared.UpRate), pop.Shared.RTT, pop.Shared.QueueBytes/1024,
					mbit(pop.Shared.Access.DownRate), mbit(pop.Shared.Access.UpRate), pop.Shared.Access.RTT, pop.Shared.ArrivalSpread),
				fmt.Sprintf("quantiles from a mergeable sketch: within %.0f%% of the exact value (a relative-error bound, not a rank bound); p0/p100 exact",
					metrics.SketchRelativeError*100),
			},
		}
		for sj, st := range sts {
			for ci := range counts {
				cell := &total[ci*len(sts)+sj]
				t.Rows = append(t.Rows, []string{
					st.Name(),
					fmt.Sprint(counts[ci]),
					msq(cell.plt.Quantile(0.5)),
					msq(cell.plt.Quantile(0.95)),
					msq(cell.si.Quantile(0.5)),
					msq(cell.si.Quantile(0.95)),
					ratio(cell.plt.Quantile(0.95), cell.plt.Quantile(0.5)),
					fmt.Sprintf("%d/%d", cell.complete, cell.loads),
				})
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// msq renders a sketch quantile in milliseconds with one decimal.
func msq(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// mbit renders a netem rate in Mbit/s, trimming trailing zeros.
func mbit(r netem.Rate) string {
	return fmt.Sprintf("%g", float64(r)/float64(netem.Mbps))
}

// ratio renders a/b with two decimals ("-" when b is zero).
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}
