package core

import (
	"fmt"

	"repro/internal/browser"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/replay"
	"repro/internal/scenario"
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

// startSeat launches one seat's page load. Static so staggered
// arrivals schedule through sim.AtCall without per-client closures.
func startSeat(arg any) { arg.(*browser.Loader).Start() }

// runPopulation executes one population run on rc: shared.Clients seats
// on the topology's clients, seat i loading sites[(run+i) % len(sites)]
// from its arrival offset, every seat's outcome folded into cell. seed
// fixes the simulator and the arrival stagger; the same (count, run)
// pair uses the same seed for every strategy, so strategies are
// compared under identical contention conditions. Every seat runs under
// the zero Conditions: the topology's link, no variability, no faults.
func (rc *RunContext) runPopulation(shared netem.SharedProfile, cell *popCell,
	sites []*replay.Site, plans []replay.Plan, cfg browser.Config, run int, seed int64) {
	rc.seedSim(seed)
	if rc.topo == nil {
		rc.topo = netem.NewTopology(rc.sim, shared)
	} else {
		rc.topo.Reset(shared)
	}
	rc.offsets = shared.ArrivalOffsets(seed, rc.offsets)
	var cond scenario.Conditions
	for i := 0; i < shared.Clients; i++ {
		k := (run + i) % len(sites)
		ld := rc.wire(i, rc.topo.Client(i), &cond, sites[k], plans[k], cfg)
		rc.sim.AtCall(rc.offsets[i], startSeat, ld)
	}
	rc.sim.Run()
	// Scalars are extracted before the seats are recycled.
	for i := 0; i < shared.Clients; i++ {
		r := rc.seats[i].ld.Result()
		cell.plt.Add(r.PLT)
		cell.si.Add(r.SpeedIndex)
		cell.loads++
		if r.Outcome == browser.OutcomeComplete {
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
// the way a testbed's evaluation does (forStrategy), and forces the
// parse-once Prepared state: the applied sites and the plans (with the
// lowering each plan carries) are shared read-only across all workers
// of every population.
func populationPrep(sts []strategy.Strategy, sites []*replay.Site) popPrep {
	prep := popPrep{
		sts:     sts,
		applied: make([][]*replay.Site, len(sts)),
		plans:   make([][]replay.Plan, len(sts)),
		cfgs:    make([]browser.Config, len(sts)),
	}
	tb := NewTestbed()
	for sj, st := range sts {
		prep.applied[sj] = make([]*replay.Site, len(sites))
		prep.plans[sj] = make([]replay.Plan, len(sites))
		for i, site := range sites {
			run, runSite, plan := tb.forStrategy(site, st, nil)
			runSite.Prepared()
			prep.applied[sj][i] = runSite
			prep.plans[sj][i] = plan
			prep.cfgs[sj] = run.Browser
		}
	}
	return prep
}

// popUnit builds one population's unit: unit u is the (client-count,
// strategy, run) triple popAddr decodes, run on whatever context the
// pool hands it and reported as a cell of its own.
func popUnit(pop scenario.Population, counts []int, popIdx int, prep popPrep, scale ExperimentScale) func(rc *RunContext, u int) popCell {
	return func(rc *RunContext, u int) popCell {
		ci, sj, run := popAddr(u, len(prep.sts), scale.Runs)
		shared := pop.Shared
		shared.Clients = counts[ci]
		var cell popCell
		rc.runPopulation(shared, &cell, prep.applied[sj], prep.plans[sj], prep.cfgs[sj],
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

// PopulationSweep runs the strategy contrast at each client count on
// each population preset and renders one table per preset: rows are
// (strategy, clients) cells with median/p95 PLT and SpeedIndex, a
// fairness ratio (PLT p95/p50 — how much the unlucky clients pay) and
// completion counts. Output is byte-identical for any scale.Jobs.
// scenario.PopulationsByNames resolves presets by name.
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
	sts := strategyTrio()
	prep := populationPrep(sts, randomSites(scale))

	tables := make([]*Table, 0, len(pops))
	for popIdx, pop := range pops {
		nUnits := len(counts) * len(sts) * scale.Runs
		cells := collectWith(newBudget(scale.Jobs), nUnits, &runContexts, nil, popUnit(pop, counts, popIdx, prep, scale))
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
				t.add(
					textCell(st.Name()),
					countCell(counts[ci]),
					ms1Cell(millis(cell.plt.Quantile(0.5))),
					ms1Cell(millis(cell.plt.Quantile(0.95))),
					ms1Cell(millis(cell.si.Quantile(0.5))),
					ms1Cell(millis(cell.si.Quantile(0.95))),
					ratioCell(cell.plt.Quantile(0.95), cell.plt.Quantile(0.5)),
					fracCell(cell.complete, cell.loads),
				)
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// mbit renders a netem rate in Mbit/s, trimming trailing zeros.
func mbit(r netem.Rate) string {
	return fmt.Sprintf("%g", float64(r)/float64(netem.Mbps))
}
