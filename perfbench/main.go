package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Run shape.
const (
	// Each run interleaves its phases in rounds of about roundSeconds,
	// at least minRounds of them, so every metric samples the whole run
	// and a burst of host noise lands on all of them alike.
	roundSeconds = 3
	minRounds    = 5
	// setupSlots rounds spread evenly over the run, the first included,
	// start with a slot of set-ups: at least one each and, while set-up
	// is cheap, more until the slot has used its share of setupBudget or
	// done its share of maxSetups. setup_s is their median. Spreading the
	// slots over the run keeps one burst of host noise from landing on
	// every set-up.
	setupSlots  = 3
	maxSetups   = 24
	setupBudget = 3 * time.Second
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for journals and span files")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, *seed, *seconds, *traced == 1, *workdir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up in its first set-up slot, keeps the first
// set-up, warms it, measures for the given seconds (the later set-up slots
// run between rounds of an untraced run) and assembles the result. Progress and per-metric
// detail go to log.
func run(w workload, seed int64, seconds int, traced bool, workdir string, log io.Writer) (*result, error) {
	chk := &checker{}
	r := &runner{rec: newRecorder(), chk: chk, seed: seed, workdir: workdir}
	s, err := r.setUp(w, traced, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.s = s
	if traced {
		r.lay = newLayers(s)
	}
	// Warm-up: one pass over every phase, checked but not recorded.
	r.packetRep()
	r.controlCycle(0)
	r.fleetCycle(true)
	r.rec = newRecorder()
	if traced {
		r.lay = newLayers(s)
	}
	if err := measure(r, time.Duration(seconds)*time.Second); err != nil {
		return nil, err
	}

	res := &result{Metrics: make(map[string]metricOut)}
	var notes []string
	res.Attempted, res.Failed, notes = chk.totals()
	res.Correct = res.Failed == 0
	for _, n := range notes {
		fmt.Fprintln(log, "FAILED:", n)
	}
	specs, values := endToEnd, r.endToEnd()
	if traced {
		specs, values = perLayer, r.lay.metrics()
		if err := writeSpans(filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed)), r.lay.kept); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(log, "workload %s seed %d: %d operations attempted, %d failed\n", w.name, seed, res.Attempted, res.Failed)
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		fmt.Fprintf(log, "  %-34s %14.6g %-6s %s\n", m.name, v, m.unit, r.detail(m))
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	return res, nil
}

// setUp runs one slot of set-ups and returns the first stack when keep is
// set, closing the others. Each set-up starts on a collected heap, and the
// discarded ones are collected before anything else is timed.
func (r *runner) setUp(w workload, traced, keep bool) (*stack, error) {
	var kept *stack
	for start, n := time.Now(), 0; n == 0 || (n < maxSetups/setupSlots && time.Since(start) < setupBudget/setupSlots); n++ {
		runtime.GC()
		t0 := time.Now()
		st, err := newStack(w, r.seed, r.workdir, traced)
		if err != nil {
			if kept != nil {
				kept.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups.add(time.Since(t0).Seconds())
		if keep && kept == nil {
			kept = st
		} else {
			st.close()
		}
	}
	runtime.GC()
	return kept, nil
}

// measure interleaves the three phases over rounds: packets, the
// closed-loop control cycles, and the fleet cycles. Each phase runs at
// least once per round and ends at a fixed offset from the start of the
// measurement, so a phase that overruns (a repair Reconcile at 1000
// programs takes most of a second) shortens the next one instead of the
// run growing past total. A set-up slot before a round moves the offsets
// back by its own time.
func measure(r *runner, total time.Duration) error {
	w := r.s.w
	rounds := max(minRounds, int(total/(roundSeconds*time.Second)))
	slot := 1 // the next set-up slot; slot 0 ran before the warm-up
	start := time.Now()
	at := func(round float64) time.Time {
		return start.Add(time.Duration(round * float64(total) / float64(rounds)))
	}
	for i := 0; i < rounds; i++ {
		ri := float64(i)
		// Traced runs report no setup_s, and a set-up's garbage
		// collections would count in go.gc_cycles.
		if slot < setupSlots && i == slot*rounds/setupSlots && r.lay == nil {
			slot++
			t0 := time.Now()
			if _, err := r.setUp(w, false, false); err != nil {
				return err
			}
			start = start.Add(time.Since(t0))
		}
		if r.lay != nil {
			r.s.tracer.SetEnabled(i%2 == 0)
		}
		// Each phase starts on a collected heap, so one phase's garbage
		// is not collected on another's time.
		runtime.GC()
		until := at(ri + w.share[0])
		for first := true; first || time.Now().Before(until); first = false {
			r.packetRep()
		}
		r.flushSpans()
		runtime.GC()
		until = at(ri + w.share[0] + w.share[1])
		for n := 0; n == 0 || time.Now().Before(until); n++ {
			r.controlCycle(n)
		}
		r.flushSpans()
		runtime.GC()
		r.fleetPhase(at(ri + 1))
		r.flushSpans()
	}
	return nil
}

func (r *runner) flushSpans() {
	if r.lay != nil {
		r.lay.flush()
	}
}

// endToEnd renders the end-to-end metrics from the recorded samples.
func (r *runner) endToEnd() map[string]float64 {
	g := r.rec.get
	pkt := g("pkt_ns")
	return map[string]float64{
		"setup_s":             r.setups.median(),
		"mem_peak_mb":         float64(r.rec.memPeak) / (1 << 20),
		"replay_pps":          g("replay_pps").median(),
		"pkt_p50_ns":          pkt.median(),
		"pkt_p90_ns":          pkt.q(0.9),
		"deploy_p50_ms":       g("deploy_ms").median(),
		"revoke_p50_ms":       g("revoke_ms").median(),
		"batch_deploy_pps":    g("batch_deploy_pps").median(),
		"mem_batch_wps":       g("mem_batch_wps").median(),
		"upgrade_p50_ms":      g("upgrade_ms").median(),
		"fleet_deploy_p50_ms": g("fleet_deploy_ms").median(),
		"reconcile_ms":        g("reconcile_ms").median(),
	}
}

// sampleOf names the recorded series behind each end-to-end timing and
// the quantile reported from it, for the sample-count detail.
var sampleOf = map[string]struct {
	series string
	q      float64
}{
	"replay_pps": {"replay_pps", 0.5}, "pkt_p50_ns": {"pkt_ns", 0.5}, "pkt_p90_ns": {"pkt_ns", 0.9},
	"deploy_p50_ms": {"deploy_ms", 0.5}, "revoke_p50_ms": {"revoke_ms", 0.5},
	"batch_deploy_pps": {"batch_deploy_pps", 0.5}, "mem_batch_wps": {"mem_batch_wps", 0.5},
	"upgrade_p50_ms": {"upgrade_ms", 0.5}, "fleet_deploy_p50_ms": {"fleet_deploy_ms", 0.5},
	"reconcile_ms": {"reconcile_ms", 0.5},
}

// detail reports a metric's sample count and, for a median timing, the
// highest percentile with at least ten samples beyond it; it flags a
// gated tail quantile with fewer.
func (r *runner) detail(m metricSpec) string {
	name := m.name
	switch name {
	case "setup_s":
		return fmt.Sprintf("n=%d, min %.4g s, max %.4g s", len(r.setups), r.setups.q(0), r.setups.q(1))
	case "trace.deploy_overhead_ratio", "trace.replay_overhead_ratio":
		return "ROADMAP bound: tracing overhead under 3% (ratio <= 1.03)"
	case "trace.residual_share":
		return "stated residual on ctl-occupied: under 0.10 of the client-observed deploy"
	}
	so, ok := sampleOf[name]
	if !ok {
		return ""
	}
	sr := r.rec.get(so.series)
	out := fmt.Sprintf("n=%d", len(sr))
	if p, ok := sr.tail(); ok && so.q == 0.5 && (m.unit == "ms" || m.unit == "ns") {
		out += fmt.Sprintf(", p%g %.4g %s", p*100, sr.q(p), m.unit)
	}
	if so.q > 0.5 && !sr.tailOK(so.q) {
		out += fmt.Sprintf(" (fewer than 10 samples beyond p%g)", so.q*100)
	}
	if name == "replay_pps" {
		out += fmt.Sprintf(", %d packets per replay", len(r.s.wt.tr.Events))
	}
	return out
}

// writeSpans writes the kept span trees as JSON.
func writeSpans(path string, trees any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(trees); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
