package core

// The frozen bench/ still names symbols of two deleted code paths. Of
// the fork-at-divergence cache: bench/layers.go:799 sc.NoFork, 807
// ResetForkStats, 812 ReadForkStats().HitRate. Of the multiprocess
// executor: bench/main.go:37 and bench/bench_test.go:20
// MaybeServeWorker, bench/layers.go:826-846 sc.Exec, Exec and
// ExecMultiProcess. Every driver runs in process whatever they say. The
// next `benchmark` PR drops core.fork_* and core.multiprocess_* from the
// contract and deletes this file.

type benchCompat struct {
	NoFork bool // accepted, ignored
	Exec   Exec // accepted, ignored
}

type ForkStats struct{}

func (ForkStats) HitRate() float64 { return 0 }
func ResetForkStats()              {}
func ReadForkStats() ForkStats     { return ForkStats{} }

type Exec struct {
	Kind   string
	Shards int
}

const ExecMultiProcess = "multiprocess"

func MaybeServeWorker() {}
