package rvpredict

import (
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/introspect"
	"repro/internal/race"
	"repro/internal/telemetry"
)

// SpanRecorder is the bounded, lock-free ring buffer the detectors
// publish their span timeline into when Options.Spans is set, with an
// optional consumer of every span as it ends. Export the collected
// timeline with WriteChromeTrace; see internal/telemetry for the
// recording contract (overwrite-on-wrap, monotonic timestamps).
type SpanRecorder = telemetry.SpanRecorder

// SpanEvent is one completed span, as the ring stores it and the
// recorder's consumer receives it: a window span that reached a verdict
// carries the window's index, length and findings, a query span the
// pair's events and its outcome.
type SpanEvent = telemetry.SpanEvent

// The kinds of SpanEvent that carry a payload.
const (
	SpanWindow = telemetry.SpanWindow
	SpanQuery  = telemetry.SpanQuery
)

// DefaultSpanCapacity is a reasonable recorder size for whole-run
// timelines: big enough for thousands of windows with per-group detail.
const DefaultSpanCapacity = telemetry.DefaultSpanCapacity

// NewSpanRecorder returns a recorder holding the most recent capacity
// spans (0 selects DefaultSpanCapacity, a negative capacity keeps no
// ring). onEnd, when non-nil, receives every span as it ends, possibly
// concurrently (window or pair workers under Parallelism), so it must serialise
// internally and stay cheap.
func NewSpanRecorder(capacity int, onEnd func(SpanEvent)) *SpanRecorder {
	return telemetry.NewSpanRecorder(capacity, onEnd)
}

// BuildID identifies one build of this module.
type BuildID struct {
	// Version is the main module's version; "devel" for source builds
	// outside a released module version.
	Version string `json:"version"`
	// Revision is the VCS revision the Go toolchain embedded at build
	// time, or "unknown" when the binary was built outside a checkout
	// (go test binaries, for example).
	Revision string `json:"revision"`
}

var (
	buildOnce sync.Once
	buildID   BuildID
)

// BuildInfo reports the module version and VCS revision of the running
// binary, read once from the build information embedded by the Go
// toolchain. Both fields always carry a non-empty value so reports and
// the /metrics build_info gauge never expose empty labels.
func BuildInfo() BuildID {
	buildOnce.Do(func() {
		buildID = BuildID{Version: "devel", Revision: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			buildID.Version = v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				buildID.Revision = s.Value
			}
		}
	})
	return buildID
}

// startIntrospection binds Options.DebugAddr, serves the debug surface
// for the run's duration and installs the /races feed: every completed
// window's races (already provenance-stamped, in whole-trace
// coordinates) are pushed as they merge, rendered through locOf (an
// event-index → location-name accessor, so the feed works identically
// over a materialised trace and an out-of-core reader). The feed chains
// onto any hook already installed and leaves room for the journal
// writer to chain after it, so observation and durability compose. The
// caller owns the returned server and must Close it when the run ends.
func startIntrospection(locOf func(int) string, opt *Options) (*introspect.Server, error) {
	b := BuildInfo()
	iopt := introspect.Options{
		Collector: opt.col,
		Version:   b.Version,
		Revision:  b.Revision,
	}
	if opt.GlobalBudget > 0 {
		budget := opt.GlobalBudget
		start := time.Now()
		iopt.BudgetRemaining = func() time.Duration {
			if rem := budget - time.Since(start); rem > 0 {
				return rem
			}
			return 0
		}
	}
	srv := introspect.New(iopt)
	addr, err := srv.Start(opt.DebugAddr)
	if err != nil {
		return nil, err
	}
	prev := opt.onWindowDone
	opt.onWindowDone = func(out race.WindowOutcome) {
		if prev != nil {
			prev(out)
		}
		for _, r := range out.Races {
			srv.AddRace(introspect.RaceView{
				A:          r.A,
				B:          r.B,
				First:      locOf(r.A),
				Second:     locOf(r.B),
				Provenance: r.Prov,
			})
		}
	}
	if opt.OnDebugAddr != nil {
		opt.OnDebugAddr(addr)
	}
	return srv, nil
}
