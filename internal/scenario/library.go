package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/netem"
)

// The named scenario library. The paper evaluates push on exactly one
// access network — the 16/1 Mbit/s, 50 ms DSL link of Sec. 4.1 — and
// its central finding (push rarely helps) is condition-sensitive: push
// trades uplink round trips for downlink bytes, so link asymmetry, RTT
// and loss all move the balance. Each scenario below is a plausible
// access technology with distinct rate/RTT/loss/cwnd so ScenarioSweep
// can ask "where does push actually help?".

// DSL is the paper's controlled testbed scenario (Sec. 4.1): the DSL
// link with no run-to-run variability beyond the browser's small
// compute jitter.
func DSL() Scenario {
	return Scenario{
		Name:    "dsl",
		Info:    "paper testbed: 16/1 Mbit/s DSL (Sec. 4.1)",
		Profile: netem.DSL(),
	}
}

// InternetVariability is the perturbation regime the paper's Fig. 2a
// contrasts the testbed against: per-run network jitter, injected loss,
// server think time, dynamic third-party content and elevated client
// compute jitter.
func InternetVariability() Variability {
	return Variability{
		RTT:              Range{0.8, 1.7},
		Rate:             Range{0.6, 1.1},
		Loss:             Range{0.0005, 0.0025},
		ClientJitterFrac: 0.10,
		ThinkTimeMax:     30 * time.Millisecond,
		ThirdParty:       Range{0.7, 1.5},
	}
}

// Internet is the DSL link measured "in the wild": the same access
// link composed with InternetVariability (Fig. 2a's Internet mode).
func Internet() Scenario {
	sc := DSL().With(InternetVariability())
	sc.Name = "internet"
	sc.Info = "DSL link with Internet-mode run-to-run variability (Fig. 2a)"
	return sc
}

// Fiber is a short-RTT FTTH line where transfers are rarely
// bandwidth-limited and handshake round trips dominate.
func Fiber() Scenario {
	return Scenario{
		Name: "fiber",
		Info: "FTTH: fast symmetric-ish link, short RTT",
		Profile: netem.Profile{
			DownRate:      100 * netem.Mbps,
			UpRate:        50 * netem.Mbps,
			RTT:           10 * time.Millisecond,
			MSS:           1460,
			SegOverhead:   40,
			QueueBytes:    512 * 1024,
			InitialCwnd:   10,
			HandshakeRTTs: 2,
		},
	}
}

// Cable is a DOCSIS link: plenty of downlink, a moderately asymmetric
// uplink and a deeper last-mile queue.
func Cable() Scenario {
	return Scenario{
		Name: "cable",
		Info: "DOCSIS cable: asymmetric, moderate RTT",
		Profile: netem.Profile{
			DownRate:      50 * netem.Mbps,
			UpRate:        10 * netem.Mbps,
			RTT:           25 * time.Millisecond,
			MSS:           1460,
			SegOverhead:   40,
			QueueBytes:    256 * 1024,
			InitialCwnd:   10,
			HandshakeRTTs: 2,
		},
	}
}

// LTE is a cellular link: good rates but a longer and jittery radio
// RTT (HARQ hides almost all loss from TCP, so the profile is
// loss-free and variability lives in the RTT factor).
func LTE() Scenario {
	return Scenario{
		Name: "lte",
		Info: "LTE: fast but long, jittery radio RTT",
		Profile: netem.Profile{
			DownRate:      25 * netem.Mbps,
			UpRate:        8 * netem.Mbps,
			RTT:           60 * time.Millisecond,
			MSS:           1400,
			SegOverhead:   40,
			QueueBytes:    384 * 1024,
			InitialCwnd:   10,
			HandshakeRTTs: 2,
		},
		Vary: Variability{RTT: Range{0.9, 1.4}},
	}
}

// ThreeG is a legacy cellular link: slow, long RTT, a conservative
// initial window and residual loss.
func ThreeG() Scenario {
	return Scenario{
		Name: "3g",
		Info: "3G/HSPA: slow, long RTT, conservative cwnd",
		Profile: netem.Profile{
			DownRate:      2 * netem.Mbps,
			UpRate:        400 * netem.Kbps,
			RTT:           150 * time.Millisecond,
			MSS:           1400,
			SegOverhead:   40,
			QueueBytes:    128 * 1024,
			InitialCwnd:   4,
			HandshakeRTTs: 2,
			LossRate:      0.001,
		},
	}
}

// LossyWiFi is a congested wireless LAN on a decent uplink: the rates
// are fine, but 2% segment loss keeps congestion windows small.
func LossyWiFi() Scenario {
	return Scenario{
		Name: "wifi-lossy",
		Info: "congested Wi-Fi: decent rates, 2% segment loss",
		Profile: netem.Profile{
			DownRate:      30 * netem.Mbps,
			UpRate:        15 * netem.Mbps,
			RTT:           30 * time.Millisecond,
			MSS:           1460,
			SegOverhead:   40,
			QueueBytes:    256 * 1024,
			InitialCwnd:   10,
			HandshakeRTTs: 2,
			LossRate:      0.02,
		},
	}
}

// Satellite is a geostationary link: a ~600 ms RTT makes every saved
// round trip worth hundreds of milliseconds, and split-TCP performance
// enhancing proxies justify a large initial window and deep queue.
func Satellite() Scenario {
	return Scenario{
		Name: "satellite",
		Info: "GEO satellite: ~600 ms RTT, PEP-style large cwnd",
		Profile: netem.Profile{
			DownRate:      20 * netem.Mbps,
			UpRate:        2 * netem.Mbps,
			RTT:           600 * time.Millisecond,
			MSS:           1460,
			SegOverhead:   40,
			QueueBytes:    1024 * 1024,
			InitialCwnd:   20,
			HandshakeRTTs: 2,
			LossRate:      0.001,
		},
	}
}

// All returns every named scenario in presentation order. Each value is
// freshly constructed, so callers may mutate their copies freely.
func All() []Scenario {
	return []Scenario{
		DSL(), Internet(), Fiber(), Cable(), LTE(), ThreeG(), LossyWiFi(), Satellite(),
	}
}

// Names returns the sorted names of the library scenarios.
func Names() []string {
	scs := All()
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
	}
	sort.Strings(names)
	return names
}

// ByName resolves a library scenario by name.
func ByName(name string) (Scenario, error) {
	for _, sc := range All() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have: %s)", name, strings.Join(Names(), ", "))
}

// ByNames resolves library scenarios by name, in the order given. Nil
// or empty names means every scenario; an unknown name is ByName's
// error.
func ByNames(names []string) ([]Scenario, error) { return byNames(names, All, ByName) }

// byNames resolves names through byName, or returns all() when there
// are none.
func byNames[T any](names []string, all func() []T, byName func(string) (T, error)) ([]T, error) {
	if len(names) == 0 {
		return all(), nil
	}
	out := make([]T, 0, len(names))
	for _, n := range names {
		v, err := byName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
