package core

import (
	"fmt"

	"repro/internal/browser"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/page"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/strategy"
)

// Job definitions: one per experiment fan-out that can cross the
// process boundary. Each defineJob call registers (a) a builder that
// reconstructs the unit function from JSON params inside a worker
// child — regenerating the deterministic site set rather than shipping
// it — and (b) the unit result codec. The in-process path never runs
// through these: jobDef.collect short-circuits to the driver's own
// typed closure, so the codec is exercised exactly when results
// actually cross a pipe.

// jobScale is the ExperimentScale subset that crosses the boundary.
// Jobs and Exec deliberately do not: a worker child always runs its
// units sequentially (parallelism comes from the shard count), and
// must never recursively spawn children.
type jobScale struct {
	Sites int
	Runs  int
	Seed  int64
}

func scaleParams(sc ExperimentScale) jobScale {
	return jobScale{Sites: sc.Sites, Runs: sc.Runs, Seed: sc.Seed}
}

func (p jobScale) scale() ExperimentScale {
	return ExperimentScale{Sites: p.Sites, Runs: p.Runs, Seed: p.Seed, Jobs: 1}
}

// profileByName maps the corpus profile names back to their profiles
// inside a worker child.
func profileByName(name string) (corpus.Profile, error) {
	for _, prof := range []corpus.Profile{corpus.TopProfile(), corpus.RandomProfile()} {
		if prof.Name == name {
			return prof, nil
		}
	}
	return corpus.Profile{}, fmt.Errorf("core: unknown corpus profile %q", name)
}

// strategySpec is a strategy.Strategy in JSON-portable form.
type strategySpec struct {
	Kind  string
	N     int         `json:",omitempty"`
	Kinds []page.Kind `json:",omitempty"`
}

// specFor encodes a strategy for the wire. Parent-side only, so an
// unregistered strategy type is a programming error, not input.
func specFor(st strategy.Strategy) strategySpec {
	switch s := st.(type) {
	case strategy.NoPush:
		return strategySpec{Kind: "nopush"}
	case strategy.NoPushOptimized:
		return strategySpec{Kind: "nopush-opt"}
	case strategy.PushAll:
		return strategySpec{Kind: "pushall"}
	case strategy.PushAllOptimized:
		return strategySpec{Kind: "pushall-opt"}
	case strategy.PushCritical:
		return strategySpec{Kind: "pushcritical"}
	case strategy.PushCriticalOptimized:
		return strategySpec{Kind: "pushcritical-opt"}
	case strategy.PushFirstN:
		return strategySpec{Kind: "firstn", N: s.N}
	case strategy.PushByType:
		return strategySpec{Kind: "bytype", Kinds: s.Kinds}
	}
	panic(fmt.Sprintf("core: strategy %T has no wire spec", st))
}

// strategy decodes a wire spec inside a worker child; unknown kinds
// are input errors there, never panics.
func (sp strategySpec) strategy() (strategy.Strategy, error) {
	switch sp.Kind {
	case "nopush":
		return strategy.NoPush{}, nil
	case "nopush-opt":
		return strategy.NoPushOptimized{}, nil
	case "pushall":
		return strategy.PushAll{}, nil
	case "pushall-opt":
		return strategy.PushAllOptimized{}, nil
	case "pushcritical":
		return strategy.PushCritical{}, nil
	case "pushcritical-opt":
		return strategy.PushCriticalOptimized{}, nil
	case "firstn":
		return strategy.PushFirstN{N: sp.N}, nil
	case "bytype":
		return strategy.PushByType{Kinds: sp.Kinds}, nil
	}
	return nil, fmt.Errorf("core: unknown strategy spec %q", sp.Kind)
}

// pooledUnit adapts a driver's unit for the job registry, whose runners
// take only a unit index: each call checks its state out of the
// engine's free list and releases it afterwards. A worker child runs
// its units one after another, so the LIFO list hands it the same warm
// state every time; the in-process reference executor may call it from
// several goroutines at once.
func pooledUnit[S, T any](pool *freeList[S], unit func(s *S, i int) T) func(i int) T {
	return func(i int) T {
		s := pool.checkout(1)
		v := unit(s, i)
		pool.release(s)
		return v
	}
}

// --- delta: Fig 2b / 3a / 3b / Sec 4.2.1 strategy-vs-baseline units ---

type deltaParams struct {
	Profile  string
	Strategy strategySpec
	Trace    bool
	Scale    jobScale
}

// deltaResult is one site's median-delta pair in milliseconds.
type deltaResult struct{ plt, si float64 }

var deltaJob = defineJob("delta",
	func(p deltaParams) (func(i int) deltaResult, error) {
		prof, err := profileByName(p.Profile)
		if err != nil {
			return nil, err
		}
		st, err := p.Strategy.strategy()
		if err != nil {
			return nil, err
		}
		scale := p.Scale.scale()
		sites := corpus.GenerateSet(prof, scale.Sites, scale.Seed)
		return pooledUnit(&runContexts, deltaUnit(sites, st, scale, newBudget(1), p.Trace)), nil
	},
	func(b []byte, v deltaResult) []byte {
		b = shard.AppendFloat64(b, v.plt)
		return shard.AppendFloat64(b, v.si)
	},
	func(r *shard.Reader) deltaResult {
		return deltaResult{plt: r.Float64(), si: r.Float64()}
	},
)

// --- fig2a: per-site PLT/SI samples under one scenario ---

type fig2aParams struct {
	Scn   scenario.Scenario
	Push  bool
	Scale jobScale
}

// evalSamples carries one site's full PLT/SI samples — raw or
// compacted — across the boundary, so fig2a exercises the
// metrics.Sample codec on real experiment data.
type evalSamples struct{ plt, si metrics.Sample }

var fig2aJob = defineJob("fig2a",
	func(p fig2aParams) (func(i int) evalSamples, error) {
		if err := p.Scn.Validate(); err != nil {
			return nil, err
		}
		scale := p.Scale.scale()
		sites := corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
		return pooledUnit(&runContexts, fig2aUnit(sites, p.Scn, p.Push, scale, newBudget(1))), nil
	},
	func(b []byte, v evalSamples) []byte {
		b = shard.AppendSample(b, &v.plt)
		return shard.AppendSample(b, &v.si)
	},
	func(r *shard.Reader) evalSamples {
		return evalSamples{plt: r.Sample(), si: r.Sample()}
	},
)

// --- fig4 / fig5 / fig6: pre-rendered row fragments ---

type fig4Params struct {
	Scale jobScale
}

var fig4Job = defineJob("fig4",
	func(p fig4Params) (func(i int) [][]string, error) {
		return pooledUnit(&runContexts, fig4Unit(corpus.SyntheticSites(), p.Scale.scale(), newBudget(1))), nil
	},
	shard.AppendRows,
	func(r *shard.Reader) [][]string { return r.Rows() },
)

type fig5Params struct {
	Runs int
	Seed int64
}

var fig5Job = defineJob("fig5",
	func(p fig5Params) (func(i int) []string, error) {
		return pooledUnit(&runContexts, fig5Unit(p.Runs, p.Seed, newBudget(1))), nil
	},
	shard.AppendStrings,
	func(r *shard.Reader) []string { return r.Strings() },
)

type fig6Params struct {
	IDs   []string
	Scale jobScale
}

var fig6Job = defineJob("fig6",
	func(p fig6Params) (func(i int) [][]string, error) {
		return pooledUnit(&runContexts, fig6Unit(p.IDs, p.Scale.scale(), newBudget(1))), nil
	},
	shard.AppendRows,
	func(r *shard.Reader) [][]string { return r.Rows() },
)

// --- scenario: per-site strategy-contrast vectors ---

type scenarioParams struct {
	Scn   scenario.Scenario
	Scale jobScale
}

var scenarioJob = defineJob("scenario",
	func(p scenarioParams) (func(i int) siteResult, error) {
		if err := p.Scn.Validate(); err != nil {
			return nil, err
		}
		scale := p.Scale.scale()
		sites := corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
		return pooledUnit(&runContexts, scenarioUnit(p.Scn, sites, scale, newBudget(1))), nil
	},
	func(b []byte, v siteResult) []byte {
		b = shard.AppendFloat64s(b, v.dPLT)
		b = shard.AppendFloat64s(b, v.dSI)
		return shard.AppendInt64s(b, v.pushedKB)
	},
	func(r *shard.Reader) siteResult {
		return siteResult{dPLT: r.Float64s(), dSI: r.Float64s(), pushedKB: r.Int64s()}
	},
)

// --- fault: per-site (family x strategy) run-stat cells ---

type faultParams struct {
	Scn   scenario.Scenario
	Scale jobScale
}

var faultJob = defineJob("fault",
	func(p faultParams) (func(i int) [][]faultRunStat, error) {
		if err := p.Scn.Validate(); err != nil {
			return nil, err
		}
		scale := p.Scale.scale()
		sites := corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
		return pooledUnit(&runContexts, faultUnit(p.Scn, sites, scale, newBudget(1))), nil
	},
	func(b []byte, cells [][]faultRunStat) []byte {
		b = shard.AppendUvarint(b, uint64(len(cells)))
		for _, runs := range cells {
			b = shard.AppendUvarint(b, uint64(len(runs)))
			for _, st := range runs {
				b = shard.AppendUvarint(b, uint64(st.outcome))
				b = shard.AppendDuration(b, st.plt)
				b = shard.AppendVarint(b, st.failedRes)
				b = shard.AppendVarint(b, st.wastedKB)
			}
		}
		return b
	},
	func(r *shard.Reader) [][]faultRunStat {
		nc := r.Count(1)
		if nc == 0 {
			return nil
		}
		cells := make([][]faultRunStat, nc)
		for i := range cells {
			nr := r.Count(4) // each stat is at least four varint bytes
			if nr == 0 {
				continue
			}
			runs := make([]faultRunStat, nr)
			for j := range runs {
				runs[j] = faultRunStat{
					outcome:   browser.LoadOutcome(r.Uvarint()),
					plt:       r.Duration(),
					failedRes: r.Varint(),
					wastedKB:  r.Varint(),
				}
			}
			cells[i] = runs
		}
		return cells
	},
)

// --- population: one (client-count, strategy, run) cell per unit ---

type popParams struct {
	Pop    scenario.Population
	Counts []int
	PopIdx int
	Scale  jobScale
}

var populationJob = defineJob("population",
	func(p popParams) (func(u int) popCell, error) {
		if err := p.Pop.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if len(p.Counts) == 0 {
			return nil, fmt.Errorf("core: population job needs client counts")
		}
		for _, n := range p.Counts {
			if n <= 0 {
				return nil, fmt.Errorf("core: client count must be positive, got %d", n)
			}
		}
		scale := p.Scale.scale()
		sites := corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
		prep := populationPrep(populationStrategies(), sites)
		return pooledUnit(&popWorkers, popUnit(p.Pop, p.Counts, p.PopIdx, prep, scale)), nil
	},
	func(b []byte, v popCell) []byte {
		b = shard.AppendSketch(b, &v.plt)
		b = shard.AppendSketch(b, &v.si)
		b = shard.AppendVarint(b, v.loads)
		return shard.AppendVarint(b, v.complete)
	},
	func(r *shard.Reader) popCell {
		return popCell{plt: r.Sketch(), si: r.Sketch(), loads: r.Varint(), complete: r.Varint()}
	},
)
