package core

// The frozen bench/layers.go still names three symbols of the deleted
// fork-at-divergence cache (line 799 sc.NoFork, 807 ResetForkStats, 812
// ReadForkStats().HitRate). The next `benchmark` PR drops core.fork_*
// from the contract and deletes this file.

type benchCompat struct{ NoFork bool } // accepted, ignored

type ForkStats struct{}

func (ForkStats) HitRate() float64 { return 0 }
func ResetForkStats()              {}
func ReadForkStats() ForkStats     { return ForkStats{} }
