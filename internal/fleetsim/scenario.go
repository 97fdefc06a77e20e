// Package fleetsim is the closed-loop fleet-scale evaluation harness:
// a seeded load generator that drives hundreds to thousands of
// concurrent stream client sessions — mixed device profiles, fixed and
// adaptive quality, Poisson arrivals, fault schedules, node churn —
// against a streamd cluster, verifies every delivered frame against
// bit-exact references, and reconstructs the fleet's power story from
// two independent sources: the clients' own power.Ledger accounting and
// the servers' /metrics expositions. The paper evaluates one handheld
// at a time; this package asks whether the annotation pipeline's
// savings and QoS hold when an operator's whole fleet hits the serving
// tier at once.
package fleetsim

import (
	"fmt"
	"time"

	"repro/internal/compensate"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/video"
)

// DeviceClass is one slice of the fleet's device mix: a display profile
// name, its share of the session population, and (for adaptive
// sessions) the battery each session starts with.
type DeviceClass struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// BatteryWh, when nonzero, arms adaptive sessions of this class with
	// a draining battery gauge (the ladder's battery floor input).
	BatteryWh float64 `json:"battery_wh,omitempty"`
}

// Scenario is one fleet experiment, fully declarative: the same
// scenario and seed must reproduce the same session population.
type Scenario struct {
	Name     string `json:"name"`
	Sessions int    `json:"sessions"`
	// MaxConcurrent bounds in-flight sessions (the load generator's
	// admission window, not the servers').
	MaxConcurrent int `json:"max_concurrent"`
	// ArrivalRate is the Poisson arrival intensity in sessions/second;
	// 0 releases every session immediately (bounded by MaxConcurrent).
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	// AdaptiveFrac is the fraction of sessions that negotiate the
	// adaptive quality ladder; the rest play fixed-quality sessions.
	AdaptiveFrac float64 `json:"adaptive_frac,omitempty"`
	// Rungs is the quality-rung pool fixed sessions draw from
	// (indexes into compensate.QualityLevels).
	Rungs []int `json:"rungs"`
	// AdaptiveRung is the ceiling rung adaptive sessions start at.
	AdaptiveRung int           `json:"adaptive_rung,omitempty"`
	Devices      []DeviceClass `json:"devices"`
	// Nodes is the cluster size booted in-process (ignored when the
	// runner is pointed at an external cluster).
	Nodes int `json:"nodes"`
	// MaxSessionsPerNode, when nonzero, caps each node's concurrent
	// sessions so over-capacity load is shed (stream_sessions_shed_total).
	MaxSessionsPerNode int `json:"max_sessions_per_node,omitempty"`
	// Faults is a faults.ParseConfig schedule wrapped around every
	// node's listener ("" = healthy links).
	Faults string `json:"faults,omitempty"`
	// KillOwnerFrac, when nonzero, kills the variant-shard owner of the
	// first clip after this fraction of sessions has completed — the
	// churn drill. In-flight sessions must retry/resume elsewhere and
	// still deliver exact bytes.
	KillOwnerFrac float64 `json:"kill_owner_frac,omitempty"`
	// SessionTTL is the abandon-on-stall deadline per session
	// (0 = wait forever).
	SessionTTL time.Duration `json:"session_ttl,omitempty"`
	// Clip geometry (defaults 32x24 @ 8 fps — the test-tier size; the
	// power model scales with time, not pixels).
	ClipW int `json:"clip_w,omitempty"`
	ClipH int `json:"clip_h,omitempty"`
	FPS   int `json:"fps,omitempty"`
}

// withDefaults fills the zero-valued knobs.
func (sc Scenario) withDefaults() Scenario {
	if sc.MaxConcurrent <= 0 {
		sc.MaxConcurrent = 32
	}
	if len(sc.Rungs) == 0 {
		sc.Rungs = []int{1, 2, 3}
	}
	if sc.AdaptiveRung <= 0 {
		sc.AdaptiveRung = 3
	}
	if len(sc.Devices) == 0 {
		sc.Devices = DefaultDevices()
	}
	if sc.Nodes <= 0 {
		sc.Nodes = 1
	}
	if sc.ClipW <= 0 {
		sc.ClipW = 32
	}
	if sc.ClipH <= 0 {
		sc.ClipH = 24
	}
	if sc.FPS <= 0 {
		sc.FPS = 8
	}
	return sc
}

// Validate rejects a scenario the runner cannot execute.
func (sc Scenario) Validate() error {
	sc = sc.withDefaults()
	if sc.Name == "" {
		return fmt.Errorf("fleetsim: scenario has no name")
	}
	if sc.Sessions <= 0 {
		return fmt.Errorf("fleetsim: scenario %s: sessions must be positive", sc.Name)
	}
	for _, r := range sc.Rungs {
		if r < 0 || r >= len(compensate.QualityLevels) {
			return fmt.Errorf("fleetsim: scenario %s: rung %d out of range", sc.Name, r)
		}
	}
	if sc.AdaptiveRung < 0 || sc.AdaptiveRung >= len(compensate.QualityLevels) {
		return fmt.Errorf("fleetsim: scenario %s: adaptive rung %d out of range", sc.Name, sc.AdaptiveRung)
	}
	if sc.AdaptiveFrac < 0 || sc.AdaptiveFrac > 1 {
		return fmt.Errorf("fleetsim: scenario %s: adaptive_frac %v out of [0,1]", sc.Name, sc.AdaptiveFrac)
	}
	if sc.KillOwnerFrac < 0 || sc.KillOwnerFrac >= 1 {
		return fmt.Errorf("fleetsim: scenario %s: kill_owner_frac %v out of [0,1)", sc.Name, sc.KillOwnerFrac)
	}
	if sc.KillOwnerFrac > 0 && sc.Nodes < 2 {
		return fmt.Errorf("fleetsim: scenario %s: owner churn needs at least 2 nodes", sc.Name)
	}
	total := 0.0
	for _, d := range sc.Devices {
		if display.ByName(d.Name) == nil {
			return fmt.Errorf("fleetsim: scenario %s: unknown device %q", sc.Name, d.Name)
		}
		if d.Weight < 0 {
			return fmt.Errorf("fleetsim: scenario %s: negative weight for %s", sc.Name, d.Name)
		}
		total += d.Weight
	}
	if total <= 0 {
		return fmt.Errorf("fleetsim: scenario %s: device weights sum to zero", sc.Name)
	}
	return nil
}

// DefaultDevices is the canonical fleet mix: the paper's three
// evaluation handhelds, weighted toward the iPAQ 5555 testbed.
func DefaultDevices() []DeviceClass {
	return []DeviceClass{
		{Name: "ipaq5555", Weight: 0.5, BatteryWh: 4.0},
		{Name: "ipaq3650", Weight: 0.3, BatteryWh: 3.5},
		{Name: "zaurus5600", Weight: 0.2, BatteryWh: 3.2},
	}
}

// Catalog builds the fleet's clip set: three seeded synthetic clips
// spanning the luminance regimes the paper's savings depend on (a dark
// clip saves the most backlight, a bright one the least). The content
// is a pure function of geometry, so reference digests reproduce.
func Catalog(w, h, fps int) map[string]core.Source {
	night := video.MustNew("night", w, h, fps, 31, []video.SceneSpec{
		{Frames: 10, BaseLuma: 0.15, LumaSpread: 0.10, MaxLuma: 0.70, HighlightFrac: 0.01},
		{Frames: 10, BaseLuma: 0.22, LumaSpread: 0.12, MaxLuma: 0.92, HighlightFrac: 0.01},
		{Frames: 8, BaseLuma: 0.18, LumaSpread: 0.10, MaxLuma: 0.80, HighlightFrac: 0.02},
	})
	noon := video.MustNew("noon", w, h, fps, 47, []video.SceneSpec{
		{Frames: 12, BaseLuma: 0.60, LumaSpread: 0.15, MaxLuma: 1.00, HighlightFrac: 0.05},
		{Frames: 10, BaseLuma: 0.55, LumaSpread: 0.12, MaxLuma: 0.98, HighlightFrac: 0.04},
	})
	dusk := video.MustNew("dusk", w, h, fps, 59, []video.SceneSpec{
		{Frames: 8, BaseLuma: 0.45, LumaSpread: 0.15, MaxLuma: 0.95, HighlightFrac: 0.03},
		{Frames: 10, BaseLuma: 0.25, LumaSpread: 0.10, MaxLuma: 0.75, HighlightFrac: 0.01},
		{Frames: 8, BaseLuma: 0.35, LumaSpread: 0.12, MaxLuma: 0.88, HighlightFrac: 0.02},
	})
	return map[string]core.Source{
		"night": core.ClipSource{Clip: night},
		"noon":  core.ClipSource{Clip: noon},
		"dusk":  core.ClipSource{Clip: dusk},
	}
}

// clipNames is the catalog in deterministic draw order.
var clipNames = []string{"night", "noon", "dusk"}

// Canonical is the committed scenario matrix (EXPERIMENTS.md): the
// three fleet shapes CI gates against BENCH_fleet.json.
func Canonical() []Scenario {
	return []Scenario{
		{
			// Byte-deterministic by construction: fixed-quality only,
			// healthy links, no churn — the determinism-test scenario.
			Name:          "small-healthy",
			Sessions:      60,
			MaxConcurrent: 16,
			ArrivalRate:   300,
			AdaptiveFrac:  0,
			Rungs:         []int{1, 2, 3},
			Nodes:         3,
		},
		{
			// Lossy links: added latency, fragmented writes, and a reset
			// schedule that kills a handful of early connections so the
			// retry/resume path carries real traffic.
			Name:          "medium-lossy",
			Sessions:      200,
			MaxConcurrent: 32,
			ArrivalRate:   400,
			AdaptiveFrac:  0.3,
			Rungs:         []int{1, 2, 3},
			AdaptiveRung:  3,
			Nodes:         3,
			Faults:        "latency=200us,short,reset=20000:35000:50000,seed=11",
			SessionTTL:    2 * time.Minute,
		},
		{
			// The churn drill from the issue's acceptance bar: 1000 mixed
			// sessions against 3 nodes with the variant-shard owner killed
			// a quarter of the way in.
			Name:          "large-churn",
			Sessions:      1000,
			MaxConcurrent: 64,
			ArrivalRate:   800,
			AdaptiveFrac:  0.3,
			Rungs:         []int{1, 2, 3},
			AdaptiveRung:  3,
			Nodes:         3,
			KillOwnerFrac: 0.25,
			SessionTTL:    2 * time.Minute,
		},
	}
}

// ScenarioByName returns the canonical scenario with the given name.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Canonical() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("fleetsim: unknown scenario %q", name)
}
