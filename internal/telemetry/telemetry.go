// Package telemetry is the runtime observability layer over a P4runpro
// controller: a sweep engine that periodically snapshots each deployed
// program's traffic counters, stateful-memory occupancy, and per-RPB entry
// usage into fixed-size time-series windows, turning the switch's cumulative
// atomics into windowed rates (packets/s, hit ratio, memory growth). The
// paper's programs are opaque once linked; this package is how an operator
// answers "which program is taking the traffic, and is its sketch still
// growing?" without ever touching the packet path — sweeps read the same
// lock-free counters the pipeline updates.
//
// The engine also fronts the switch's sampled packet postcards (see
// internal/rmt/postcard.go) for the wire verbs and the HTTP endpoint, and
// registers every derived rate as a scrape-time gauge in the controller's
// obs.Registry so one Prometheus scrape carries both the cumulative and the
// windowed view.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/obs"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

// Options tunes the sweep engine.
type Options struct {
	// Interval between sweeps; default 1s.
	Interval time.Duration
	// Window is the number of sweep samples retained per series; default 60
	// (one minute of history at the default interval).
	Window int
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Window <= 0 {
		o.Window = 60
	}
	return o
}

// pruneAfter is how many consecutive sweeps a program may be absent from the
// controller's listing before its series is dropped (revoked programs
// disappear immediately from listings; the grace period only guards against
// a listing racing a redeploy).
const pruneAfter = 3

// programSeries is the engine's per-program state: the time-series windows
// behind the rates plus the latest cumulative snapshot for display.
type programSeries struct {
	programID uint16
	pktHits   *obs.Window // init-table hits: one per matched packet per pass
	mem       *obs.Window // allocated stateful words (occupancy, signed rate)

	lastPktHits uint64
	hits        uint64
	memWords    uint32
	entries     int
	rpbEntries  map[int]int
	missing     int
}

// Engine sweeps one controller. Create with New, then Start (or drive
// manually with Sweep for deterministic tests).
type Engine struct {
	ct  *controlplane.Controller
	opt Options

	mu    sync.Mutex
	progs map[string]*programSeries
	// registered tracks which program names already have per-program
	// gauges in the registry: obs series cannot be unregistered, so each
	// name registers once and its closures read 0 after pruning.
	registered map[string]bool

	switchPkts *obs.Window
	switchFwd  *obs.Window

	sweeps   atomic.Uint64
	sweepNs  *obs.Histogram
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an engine over a controller and registers its switch-wide
// derived metrics in the controller's registry.
func New(ct *controlplane.Controller, opt Options) *Engine {
	opt = opt.withDefaults()
	e := &Engine{
		ct:         ct,
		opt:        opt,
		progs:      make(map[string]*programSeries),
		registered: make(map[string]bool),
		switchPkts: obs.NewWindow(opt.Window),
		switchFwd:  obs.NewWindow(opt.Window),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	reg := ct.Obs
	reg.GaugeFunc("p4runpro_switch_pps",
		"windowed packet injection rate", e.switchPkts.Rate)
	reg.GaugeFunc("p4runpro_switch_forwarded_pps",
		"windowed forwarded-verdict rate", e.switchFwd.Rate)
	reg.CounterFunc("p4runpro_rmt_postcards_total",
		"packet postcards recorded since provisioning", ct.SW.PostcardCount)
	reg.CounterFunc("p4runpro_telemetry_sweeps_total",
		"telemetry sweeps completed", e.sweeps.Load)
	e.sweepNs = reg.Histogram("p4runpro_telemetry_sweep_duration_ns",
		"wall-clock nanoseconds per telemetry sweep")
	return e
}

// Interval returns the configured sweep cadence.
func (e *Engine) Interval() time.Duration { return e.opt.Interval }

// Start launches the background sweeper. Stop it with Stop; starting a
// stopped engine is not supported (create a new one).
func (e *Engine) Start() {
	go func() {
		defer close(e.done)
		tick := time.NewTicker(e.opt.Interval)
		defer tick.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-tick.C:
				e.Sweep()
			}
		}
	}()
}

// Stop halts the background sweeper and waits for it to exit. Safe to call
// multiple times, and safe on an engine that was never started only if
// Start is never called afterwards.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	select {
	case <-e.done:
	case <-time.After(5 * time.Second):
	}
}

// Sweep takes one sample of every watched counter. Exported so tests (and
// callers that want sweep-on-scrape semantics) can drive the engine with
// their own cadence and timestamps stay consistent within one sample.
func (e *Engine) Sweep() {
	start := time.Now()
	snap := e.ct.SW.Metrics()
	progs := e.ct.Programs()

	// One timestamp for the whole sweep: per-program rates and the
	// switch-wide rate then share time bases, so their ratio (hit ratio)
	// and the top-sum-vs-switch acceptance check are not skewed by
	// per-series clock reads.
	now := time.Now()

	e.mu.Lock()
	e.switchPkts.Observe(now, snap.Packets)
	e.switchFwd.Observe(now, snap.Verdicts[rmt.VerdictForwarded])

	seen := make(map[string]bool, len(progs))
	var toRegister []string
	for _, pi := range progs {
		seen[pi.Name] = true
		s := e.progs[pi.Name]
		if s == nil {
			s = &programSeries{
				programID: pi.ProgramID,
				pktHits:   obs.NewWindow(e.opt.Window),
				mem:       obs.NewWindow(e.opt.Window),
			}
			e.progs[pi.Name] = s
			if !e.registered[pi.Name] {
				e.registered[pi.Name] = true
				toRegister = append(toRegister, pi.Name)
			}
		}
		pktHits := pi.PacketHits
		if pi.ProgramID != s.programID || pktHits < s.lastPktHits {
			// Revoke+redeploy under the same name restarts the counters;
			// a stale window would otherwise report a huge negative pps.
			s.pktHits.Reset()
			s.programID = pi.ProgramID
		}
		s.lastPktHits = pktHits
		s.pktHits.Observe(now, pktHits)
		s.mem.Observe(now, uint64(pi.MemWords))
		s.hits = pi.Hits
		s.memWords = pi.MemWords
		s.entries = pi.Entries
		s.rpbEntries = e.rpbEntries(pi.Name)
		s.missing = 0
	}
	for name, s := range e.progs {
		if seen[name] {
			continue
		}
		if s.missing++; s.missing >= pruneAfter {
			delete(e.progs, name)
		}
	}
	e.mu.Unlock()

	// Register outside the engine lock: gauge closures take e.mu at scrape
	// time, and the registry has its own lock.
	for _, name := range toRegister {
		e.registerProgramGauges(name)
	}

	e.sweeps.Add(1)
	e.sweepNs.Observe(uint64(time.Since(start)))
}

// rpbEntries reads a program's per-RPB entry reservations from its
// allocation record.
func (e *Engine) rpbEntries(name string) map[int]int {
	lp, ok := e.ct.Compiler.Linked(name)
	if !ok || lp.Resources == nil || len(lp.Resources.Entries) == 0 {
		return nil
	}
	out := make(map[int]int, len(lp.Resources.Entries))
	for id, n := range lp.Resources.Entries {
		out[int(id)] = n
	}
	return out
}

// registerProgramGauges installs the per-program scrape-time gauges. Each
// name registers once for the engine's lifetime; after the program is
// revoked and pruned the closures report 0.
func (e *Engine) registerProgramGauges(name string) {
	reg := e.ct.Obs
	lbl := obs.L("program", name)
	reg.GaugeFunc("p4runpro_program_pps",
		"windowed per-program packet rate (init-table hits/s)",
		func() float64 { return e.programRate(name) }, lbl)
	reg.GaugeFunc("p4runpro_program_hit_ratio",
		"fraction of injected packets the program matched over the window",
		func() float64 { return e.programHitRatio(name) }, lbl)
	reg.GaugeFunc("p4runpro_program_mem_words",
		"stateful words currently allocated to the program",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			if s := e.progs[name]; s != nil {
				return float64(s.memWords)
			}
			return 0
		}, lbl)
	reg.GaugeFunc("p4runpro_program_mem_growth_wps",
		"windowed growth rate of the program's allocated words per second",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			if s := e.progs[name]; s != nil {
				return s.mem.Rate()
			}
			return 0
		}, lbl)
}

func (e *Engine) programRate(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.progs[name]; s != nil {
		return s.pktHits.Rate()
	}
	return 0
}

func (e *Engine) programHitRatio(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.progs[name]
	if s == nil {
		return 0
	}
	sw := e.switchPkts.Rate()
	if sw <= 0 {
		return 0
	}
	return s.pktHits.Rate() / sw
}

// Result builds one scrape of the engine: per-program rows sorted by
// descending pps (name as tiebreak, so the table is stable under equal
// rates) plus the switch-wide rates.
func (e *Engine) Result() wire.TelemetryProgramsResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	res := wire.TelemetryProgramsResult{
		Rows:         make([]wire.TelemetryProgramRow, 0, len(e.progs)),
		SwitchPPS:    e.switchPkts.Rate(),
		ForwardedPPS: e.switchFwd.Rate(),
		Sweeps:       e.sweeps.Load(),
		IntervalMs:   e.opt.Interval.Milliseconds(),
	}
	for name, s := range e.progs {
		row := wire.TelemetryProgramRow{
			Program:      name,
			ProgramID:    s.programID,
			Hits:         s.hits,
			PacketHits:   s.lastPktHits,
			PPS:          s.pktHits.Rate(),
			MemWords:     s.memWords,
			MemGrowthWPS: s.mem.Rate(),
			Entries:      s.entries,
			RPBEntries:   s.rpbEntries,
			Samples:      s.pktHits.Len(),
			WindowMs:     s.pktHits.Span().Milliseconds(),
		}
		if res.SwitchPPS > 0 {
			row.HitRatio = row.PPS / res.SwitchPPS
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].PPS != res.Rows[j].PPS {
			return res.Rows[i].PPS > res.Rows[j].PPS
		}
		return res.Rows[i].Program < res.Rows[j].Program
	})
	return res
}

// Postcards builds the wire view of the switch's postcard ring, optionally
// filtered by owning program and bounded by limit.
func (e *Engine) Postcards(owner string, limit int) wire.TelemetryPostcardsResult {
	every, keep := e.ct.SW.PostcardConfig()
	res := wire.TelemetryPostcardsResult{
		Every: every,
		Keep:  keep,
		Count: e.ct.SW.PostcardCount(),
	}
	for _, pc := range e.ct.SW.Postcards(owner, limit) {
		res.Postcards = append(res.Postcards, PostcardJSON(pc))
	}
	return res
}

// PostcardJSON converts one switch postcard into its wire representation.
// Exported for the fabric layer, which stitches per-hop postcards into
// end-to-end path traces and renders them through the same JSON shape.
func PostcardJSON(pc rmt.Postcard) wire.PostcardJSON {
	out := wire.PostcardJSON{
		Seq:       pc.Seq,
		InPort:    pc.InPort,
		PathID:    pc.PathID,
		Flow:      pc.Flow.String(),
		Verdict:   pc.Verdict.String(),
		OutPort:   pc.OutPort,
		Passes:    pc.Passes,
		Recircs:   pc.Recircs,
		LatencyNs: pc.Latency.Nanoseconds(),
		Truncated: pc.Truncated,
		Hops:      make([]wire.PostcardHopJSON, 0, len(pc.Hops)),
	}
	for _, h := range pc.Hops {
		out.Hops = append(out.Hops, wire.PostcardHopJSON{
			Gress:  h.Gress.String(),
			Stage:  h.Stage,
			Table:  h.Table,
			Action: h.Action,
			Owner:  h.Owner,
			Match:  h.Match,
		})
	}
	return out
}
