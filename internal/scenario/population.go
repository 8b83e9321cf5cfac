package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/netem"
)

// Population is a named shared-bottleneck preset: N clients on fast
// access links all funneled through one slower uplink, the shape the
// paper's single-client testbed cannot probe. The presets answer a
// different question than the Scenario library — not "how does one
// page load behave on link X" but "what happens to everyone's page
// loads when the household/cell/office uplink is contended".
//
// Shared.Clients is a default; population sweeps override it per
// client-count column.
type Population struct {
	Name   string
	Info   string
	Shared netem.SharedProfile
}

// Validate reports whether the population is usable.
func (p Population) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("scenario: population has no name")
	}
	if err := p.Shared.Validate(); err != nil {
		return fmt.Errorf("scenario: population %q: %w", p.Name, err)
	}
	return nil
}

// Household is a family behind one DSL line: fiber-grade in-home
// links, the paper's 16/1 Mbit/s DSL as the shared bottleneck, and
// loosely correlated browsing (arrivals spread over half a second).
func Household() Population {
	return Population{
		Name: "household",
		Info: "family behind one 16/1 Mbit/s DSL line, in-home links fast",
		Shared: netem.SharedProfile{
			Access: netem.Profile{
				DownRate:      300 * netem.Mbps,
				UpRate:        300 * netem.Mbps,
				RTT:           4 * time.Millisecond,
				MSS:           1460,
				SegOverhead:   40,
				QueueBytes:    256 * 1024,
				InitialCwnd:   10,
				HandshakeRTTs: 2,
			},
			DownRate:      16 * netem.Mbps,
			UpRate:        1 * netem.Mbps,
			RTT:           46 * time.Millisecond,
			QueueBytes:    192 * 1024,
			Clients:       4,
			ArrivalSpread: 500 * time.Millisecond,
		},
	}
}

// CellSector is the devices of one cell sector behind its backhaul:
// decent radio links into a backhaul that is the real constraint, with
// arrivals spread over a second.
func CellSector() Population {
	return Population{
		Name: "cell-sector",
		Info: "devices of one cell sector behind a 50/25 Mbit/s backhaul",
		Shared: netem.SharedProfile{
			Access: netem.Profile{
				DownRate:      100 * netem.Mbps,
				UpRate:        50 * netem.Mbps,
				RTT:           40 * time.Millisecond,
				MSS:           1400,
				SegOverhead:   40,
				QueueBytes:    384 * 1024,
				InitialCwnd:   10,
				HandshakeRTTs: 2,
			},
			DownRate:      50 * netem.Mbps,
			UpRate:        25 * netem.Mbps,
			RTT:           20 * time.Millisecond,
			QueueBytes:    512 * 1024,
			Clients:       4,
			ArrivalSpread: time.Second,
		},
	}
}

// OfficeNAT is an office LAN behind one NAT uplink: gigabit to the
// wiring closet, a 100/20 Mbit/s business line out, and tightly
// clustered arrivals (everyone opens the same page after a meeting).
func OfficeNAT() Population {
	return Population{
		Name: "office-nat",
		Info: "office LAN behind a 100/20 Mbit/s NAT uplink",
		Shared: netem.SharedProfile{
			Access: netem.Profile{
				DownRate:      1000 * netem.Mbps,
				UpRate:        1000 * netem.Mbps,
				RTT:           2 * time.Millisecond,
				MSS:           1460,
				SegOverhead:   40,
				QueueBytes:    512 * 1024,
				InitialCwnd:   10,
				HandshakeRTTs: 2,
			},
			DownRate:      100 * netem.Mbps,
			UpRate:        20 * netem.Mbps,
			RTT:           18 * time.Millisecond,
			QueueBytes:    256 * 1024,
			Clients:       4,
			ArrivalSpread: 200 * time.Millisecond,
		},
	}
}

// Populations returns every population preset in presentation order.
// Each value is freshly constructed, so callers may mutate their
// copies freely.
func Populations() []Population {
	return []Population{Household(), CellSector(), OfficeNAT()}
}

// PopulationNames returns the sorted names of the population presets.
func PopulationNames() []string {
	pops := Populations()
	names := make([]string, len(pops))
	for i, p := range pops {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// PopulationByName resolves a population preset by name.
func PopulationByName(name string) (Population, error) {
	for _, p := range Populations() {
		if p.Name == name {
			return p, nil
		}
	}
	return Population{}, fmt.Errorf("scenario: unknown population %q (have: %s)",
		name, strings.Join(PopulationNames(), ", "))
}

// PopulationsByNames resolves population presets by name, in the order
// given. Nil or empty names means every preset; an unknown name is
// PopulationByName's error.
func PopulationsByNames(names []string) ([]Population, error) {
	return byNames(names, Populations, PopulationByName)
}
