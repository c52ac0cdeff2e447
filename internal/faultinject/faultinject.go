// Package faultinject provides deterministic fault injection for testing
// the detection pipeline's recovery paths: panic isolation, solver-budget
// aborts and decode hardening.
//
// An Injector carries a script — "at the Nth crossing of point P, inject
// fault F" — and the pipeline calls Fire at its instrumentation points. A
// nil *Injector is the production state: Fire returns FaultNone without
// locking, so shipping the hooks costs one nil check per point. Scripts
// are keyed by per-point hit counts, never by wall-clock time or
// randomness, so every injected failure is reproducible, including under
// -race and with parallel window workers (Fire is safe for concurrent
// use; concurrent hits are serialised, giving each crossing a unique hit
// index).
//
// The injector is wired through the detector Options (core.Options and
// rvpredict.Options) and is intended for tests only: injected faults make
// the detector deliberately under-report, which is exactly what the
// resilience machinery must surface, never silently absorb.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Point names one instrumentation point in the pipeline.
type Point string

// Instrumentation points.
const (
	// PointSolve is crossed immediately before each solver query (races:
	// one crossing per COP solve attempt).
	PointSolve Point = "solve"
	// PointWindow is crossed at the start of each analysis window.
	PointWindow Point = "window"
	// PointDecode is crossed by tracefile decoding tests per decoded
	// section; it exists so corrupt-input scripts share the vocabulary.
	PointDecode Point = "decode"
	// PointJournalAppend is crossed once per window record appended to
	// the durable journal (internal/journal), before the record's bytes
	// are written. Crash faults here simulate process death mid-append —
	// FaultCrashTorn leaves a torn tail for recovery to truncate.
	PointJournalAppend Point = "journal_append"
	// PointReportFlush is crossed once per atomic report write
	// (journal.WriteFileAtomic), before the temp file's bytes are
	// written. Crash faults here prove the rename-last discipline: the
	// destination must never exist half-written.
	PointReportFlush Point = "report_flush"
	// PointStreamStall is crossed by the streaming daemon once per frame
	// read from a client connection. FaultTimeout makes the daemon treat
	// the read as an idle/stall timeout — the session is suspended to
	// durable state exactly as if the client had gone silent — so the
	// slow-client path is testable without real clock waits.
	PointStreamStall Point = "stream_stall"
	// PointStreamDisconnect is crossed alongside PointStreamStall, once
	// per frame read. Any scripted fault drops the connection abruptly
	// mid-stream, exercising the client's reconnect-and-resume path.
	PointStreamDisconnect Point = "stream_disconnect"
	// PointQueueSaturate is crossed once per window the streaming daemon
	// hands to the solver queue. FaultTimeout simulates sustained queue
	// saturation: the window skips the queue and is analysed in degraded
	// (sound-tier-only) mode, deterministically.
	PointQueueSaturate Point = "queue_saturate"
	// PointWorkerCrash is crossed by a fleet worker once per window
	// outcome it is about to report (internal/fleet). Crash faults kill
	// the worker mid-shard — in-process workers abort their connection,
	// re-exec workers die via CrashNow — exercising lease expiry and
	// reassignment.
	PointWorkerCrash Point = "worker_crash"
	// PointLeaseStall is crossed by a fleet worker once per heartbeat it
	// is about to send. FaultTimeout suppresses the heartbeat, so a
	// scripted run of hits makes the coordinator's lease deadline lapse
	// while the worker is still computing — the straggler/stall path,
	// without real clock waits beyond the (short, test-chosen) TTL.
	PointLeaseStall Point = "lease_stall"
	// PointResultCorrupt is crossed by a fleet worker once per result
	// frame it is about to send. Any scripted fault flips a byte in the
	// encoded outcome after its checksum was computed, so the
	// coordinator's CRC gate must reject the result and the window must
	// be re-analysed elsewhere.
	PointResultCorrupt Point = "result_corrupt"
	// PointCoordCrash is crossed by the fleet coordinator once per
	// result it has accepted and durably journaled, after the fsync and
	// before the ack. Crash faults kill the coordinator there — the
	// SIGKILL-equivalent the resume path must survive: a restarted
	// coordinator recovers every acked window from its own journal.
	PointCoordCrash Point = "coord_crash"
)

// Scoped derives a point tied to one pipeline coordinate, e.g. a window
// index. Scoped crossings are counted independently of the base point, so
// a script can target "the Nth solve attempt of window K" — deterministic
// even when windows are solved by parallel workers, because each window's
// local attempt order is fixed while the global interleaving is not.
// Instrumentation points fire both the base and the scoped point.
func Scoped(p Point, key int) Point {
	return Point(fmt.Sprintf("%s#%d", p, key))
}

// Fault is the action injected at a scripted crossing.
type Fault uint8

// Injectable faults.
const (
	// FaultNone: no fault; the crossing proceeds normally.
	FaultNone Fault = iota
	// FaultPanic: the instrumented code must panic with an InjectedPanic
	// value (detectors do this via MaybePanic), exercising the
	// panic-isolation path.
	FaultPanic
	// FaultTimeout: the instrumented code must behave as if its solver
	// budget expired at this crossing — report a timeout outcome without
	// solving — exercising the solver-abort path deterministically.
	FaultTimeout
	// FaultCrash: the instrumented code must complete the crossing's
	// durable effect (e.g. write and sync a full journal record) and
	// then terminate the process via CrashNow — simulating death between
	// two clean operations. Crash faults only make sense in re-exec
	// tests; in-process tests must never script them.
	FaultCrash
	// FaultCrashTorn: the instrumented code must make the crossing's
	// durable effect visibly incomplete (e.g. write and sync only a
	// prefix of the record's bytes) and then terminate via CrashNow —
	// simulating death mid-write, the torn tail recovery must truncate.
	FaultCrashTorn
)

// String returns the fault's name.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultTimeout:
		return "timeout"
	case FaultCrash:
		return "crash"
	case FaultCrashTorn:
		return "crash-torn"
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// CrashExitCode is the process exit status of an injected crash. It is
// distinct from every status the CLI uses (0–3), so a re-exec harness can
// tell an injected death from an ordinary failure.
const CrashExitCode = 7

// CrashNow terminates the process immediately with CrashExitCode, without
// running deferred functions — the moral equivalent of SIGKILL for
// crash-recovery tests. Instrumented code calls it after honouring the
// durability semantics of FaultCrash or FaultCrashTorn.
func CrashNow() {
	os.Exit(CrashExitCode)
}

// InjectedPanic is the value panicked with by MaybePanic, carrying the
// point and hit index that triggered it so recovery tests can assert the
// exact provenance.
type InjectedPanic struct {
	Point Point
	Hit   int
}

// Error renders the panic value; InjectedPanic implements error so
// recovered values print usefully in reports.
func (p InjectedPanic) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s hit %d", p.Point, p.Hit)
}

// Injector replays a deterministic fault script. The zero value and nil
// are both valid and inject nothing; construct a live one with New.
type Injector struct {
	mu     sync.Mutex
	hits   map[Point]int
	script map[Point]map[int]Fault
}

// New returns an empty injector.
func New() *Injector {
	return &Injector{
		hits:   make(map[Point]int),
		script: make(map[Point]map[int]Fault),
	}
}

// Script arms fault f at the hit-th crossing of point p (0-based) and
// returns the injector for chaining. Re-scripting the same crossing
// overwrites the previous fault.
func (in *Injector) Script(p Point, hit int, f Fault) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.script == nil {
		in.script = make(map[Point]map[int]Fault)
	}
	if in.script[p] == nil {
		in.script[p] = make(map[int]Fault)
	}
	in.script[p][hit] = f
	return in
}

// ParseScript builds an injector from a textual script of the form
//
//	point:hit=fault[;point:hit=fault...]
//
// where fault is one of none, panic, timeout, crash or crash-torn, hit is
// the 0-based crossing index, and point may be a scoped point like
// "window#2". Empty entries are ignored. The format exists so re-exec
// crash tests can pass a script to a child process through an environment
// variable; cmd/rvpredict reads it from RVPREDICT_FAULTS.
func ParseScript(spec string) (*Injector, error) {
	in := New()
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		eq := strings.LastIndex(entry, "=")
		if eq < 0 {
			return nil, fmt.Errorf("faultinject: bad script entry %q (want point:hit=fault)", entry)
		}
		var fault Fault
		switch name := entry[eq+1:]; name {
		case "none":
			fault = FaultNone
		case "panic":
			fault = FaultPanic
		case "timeout":
			fault = FaultTimeout
		case "crash":
			fault = FaultCrash
		case "crash-torn":
			fault = FaultCrashTorn
		default:
			return nil, fmt.Errorf("faultinject: unknown fault %q in %q", name, entry)
		}
		colon := strings.LastIndex(entry[:eq], ":")
		if colon < 0 {
			return nil, fmt.Errorf("faultinject: bad script entry %q (want point:hit=fault)", entry)
		}
		hit, err := strconv.Atoi(entry[colon+1 : eq])
		if err != nil || hit < 0 {
			return nil, fmt.Errorf("faultinject: bad hit index in %q", entry)
		}
		point := Point(entry[:colon])
		if point == "" {
			return nil, fmt.Errorf("faultinject: empty point in %q", entry)
		}
		in.Script(point, hit, fault)
	}
	return in, nil
}

// Fire records one crossing of point p and returns the fault scripted for
// it, FaultNone otherwise. A nil injector always returns FaultNone.
func (in *Injector) Fire(p Point) Fault {
	f, _ := in.fire(p)
	return f
}

// MaybePanic fires point p and acts on the scripted fault: FaultPanic
// panics with an InjectedPanic, any other fault is returned for the
// caller to interpret (FaultTimeout at a solve point means "pretend the
// budget expired"). A nil injector is a no-op returning FaultNone.
func (in *Injector) MaybePanic(p Point) Fault {
	f, hit := in.fire(p)
	if f == FaultPanic {
		panic(InjectedPanic{Point: p, Hit: hit})
	}
	return f
}

// fire records one crossing and returns its scripted fault and hit index.
func (in *Injector) fire(p Point) (Fault, int) {
	if in == nil {
		return FaultNone, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.hits == nil {
		in.hits = make(map[Point]int)
	}
	hit := in.hits[p]
	in.hits[p] = hit + 1
	return in.script[p][hit], hit
}

// Hits returns how many times point p has fired so far.
func (in *Injector) Hits(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[p]
}

// Corrupt returns a copy of data with the byte at offset XORed with mask —
// the deterministic decode-corruption helper: tests corrupt an encoded
// trace at a chosen point (a length prefix, a varint continuation bit) and
// assert the decoder fails cleanly. An out-of-range offset returns the
// input unchanged. A zero mask flips every bit (XOR 0xFF) so Corrupt never
// silently no-ops.
func Corrupt(data []byte, offset int, mask byte) []byte {
	out := append([]byte(nil), data...)
	if offset < 0 || offset >= len(out) {
		return out
	}
	if mask == 0 {
		mask = 0xFF
	}
	out[offset] ^= mask
	return out
}
