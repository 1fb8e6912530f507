package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

// maxKeptTraces bounds the span trees a traced run keeps for its span file.
const maxKeptTraces = 2000

// layers accumulates a traced run's per-layer figures: span-derived phase
// times of the operations it traced, the packet-path counters around each
// replay, and the untraced/traced split behind the overhead ratios.
type layers struct {
	s   *stack
	rec *recorder

	kept []*trace.Node
	// pending holds the traced operations whose span trees are read at
	// the end of the phase, so reading them never runs between two
	// timed operations.
	pending []pendingOp

	deployOn, deployOff series
	replayOn, replayOff series

	packets, passes, recircs, salu, lookups, postcards uint64
	replayed, mallocs, allocBytes                      uint64
	replayNs                                           int64
	verdicts                                           [rmt.VerdictNextHop + 1]uint64
	hits                                               [nClasses]uint64

	gc0                uint32
	solverN0, solverS0 uint64
}

func newLayers(s *stack) *layers {
	l := &layers{s: s, rec: newRecorder()}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	l.gc0 = st.NumGC - st.NumForcedGC
	l.solverN0, l.solverS0 = solverNodes(s.ct)
	return l
}

func (l *layers) add(name string, v float64) { l.rec.add(name, v) }

// spans returns the stored trace rooted at sp, keeping its tree for the
// span file, as span name -> summed duration.
func (l *layers) spans(sp *trace.Span) (map[string]time.Duration, bool) {
	snap, ok := l.s.tracer.Lookup(sp.TraceID())
	if !ok {
		return nil, false
	}
	if len(l.kept) < maxKeptTraces {
		l.kept = append(l.kept, snap.Tree())
	}
	sum := make(map[string]time.Duration)
	for _, x := range snap.Spans {
		sum[x.Name] += x.Dur
		if strings.HasPrefix(x.Name, "fanout.") {
			sum["fanout"] += x.Dur
		}
	}
	return sum, true
}

// pendingOp is a traced operation waiting for its span tree to be read.
type pendingOp struct {
	fleet bool // a Fleet.Deploy, else a wire deploy
	sp    *trace.Span
	lat   time.Duration
}

// deploy records one wire deploy: its entry and journal counts, its
// latency on the traced or untraced side, and, when traced, its span tree
// for the next flush.
func (l *layers) deploy(traced bool, lat time.Duration, sp *trace.Span, res []wire.DeployResult, journalBytes int64) {
	if len(res) > 0 {
		l.add("core.entries_per_deploy", float64(res[0].Entries))
	}
	if journalBytes > 0 {
		l.add("journal.bytes_per_op", float64(journalBytes))
	}
	if !traced {
		l.deployOff.add(ms(lat))
		return
	}
	l.deployOn.add(ms(lat))
	l.pending = append(l.pending, pendingOp{sp: sp, lat: lat})
}

// fleetDeploy queues a traced Fleet.Deploy's span tree for the next flush.
func (l *layers) fleetDeploy(traced bool, lat time.Duration, sp *trace.Span) {
	if !traced {
		return
	}
	l.pending = append(l.pending, pendingOp{fleet: true, sp: sp, lat: lat})
}

// flush reads the span trees of the pending operations.
func (l *layers) flush() {
	for _, op := range l.pending {
		if op.fleet {
			l.splitFleetDeploy(op.lat, op.sp)
		} else {
			l.splitDeploy(op.lat, op.sp)
		}
	}
	l.pending = l.pending[:0]
}

// splitDeploy splits one client-observed deploy into its layers. The
// compiler spans nest under the controller's apply span; what apply
// spends outside them is the switch-wide republish of the packet path.
// The residual is the client time no named phase accounts for. The wire
// overhead holds the server's request decode: the server opens its root
// span after decoding.
func (l *layers) splitDeploy(lat time.Duration, sp *trace.Span) {
	d, ok := l.spans(sp)
	if !ok || d["srv.deploy"] == 0 {
		return
	}
	republish := d["apply"] - d["link"] - d["parse"]
	overhead := lat - d["srv.deploy"]
	named := overhead + d["lock.wait"] + d["journal.commit"] +
		d["parse"] + d["translate"] + d["allocate"] + d["install"] + republish
	l.add("lang.parse_ms", ms(d["parse"]))
	l.add("lang.translate_ms", ms(d["translate"]))
	l.add("smt.allocate_ms", ms(d["allocate"]))
	l.add("core.install_ms", ms(d["install"]))
	l.add("rmt.republish_ms", ms(republish))
	l.add("journal.commit_ms", ms(d["journal.commit"]))
	l.add("ctl.lock_wait_ms", ms(d["lock.wait"]))
	l.add("wire.overhead_ms", ms(overhead))
	l.add("trace.residual_share", float64(lat-named)/float64(lat))
}

// splitFleetDeploy splits a fleet deploy into placement (footprint
// estimate, ranking, bookkeeping) and the per-member fan-out.
func (l *layers) splitFleetDeploy(lat time.Duration, sp *trace.Span) {
	if d, ok := l.spans(sp); ok {
		l.add("fleet.fanout_ms", ms(d["fanout"]))
		l.add("fleet.place_ms", ms(lat-d["fanout"]))
	}
}

// replay folds one replay's counter deltas into the totals.
func (l *layers) replay(traced bool, pps float64, n int, elapsed time.Duration, b, a counters, m0, m1 runtime.MemStats) {
	if traced {
		l.replayOn.add(pps)
	} else {
		l.replayOff.add(pps)
	}
	for i := range a.m {
		bm, am := b.m[i], a.m[i]
		l.packets += am.Packets - bm.Packets
		l.passes += am.Passes - bm.Passes
		l.recircs += am.Recircs - bm.Recircs
		l.salu += am.SALUOps - bm.SALUOps
		for j := range am.StageLookups {
			l.lookups += am.StageLookups[j] - bm.StageLookups[j]
		}
		for v := range am.Verdicts {
			l.verdicts[v] += am.Verdicts[v] - bm.Verdicts[v]
		}
	}
	for k := range a.hits {
		if p := l.s.passes[k]; p > 0 {
			l.hits[k] += (a.hits[k] - b.hits[k]) / uint64(p)
		}
	}
	l.postcards += a.postcards - b.postcards
	l.replayed += uint64(n)
	l.replayNs += elapsed.Nanoseconds()
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	l.add("traffic.alloc_bytes_per_replay", float64(m1.TotalAlloc-m0.TotalAlloc))
}

// metrics renders every per-layer metric.
func (l *layers) metrics() map[string]float64 {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	med := func(name string) float64 { return l.rec.get(name).median() }
	pk := float64(l.packets)
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	sn, ss := solverNodes(l.s.ct)
	out := map[string]float64{
		"smt.nodes_per_deploy":        div(float64(ss-l.solverS0), float64(sn-l.solverN0)),
		"rmt.passes_per_pkt":          div(float64(l.passes), pk),
		"rmt.lookups_per_pkt":         div(float64(l.lookups), pk),
		"rmt.salu_ops_per_pkt":        div(float64(l.salu), pk),
		"rmt.recirc_share":            div(float64(l.recircs), pk),
		"rmt.postcards_per_kpkt":      div(1000*float64(l.postcards), pk),
		"rmt.allocs_per_pkt":          div(float64(l.mallocs), float64(l.replayed)),
		"rmt.bytes_per_pkt":           div(float64(l.allocBytes), float64(l.replayed)),
		"go.gc_cycles":                float64(st.NumGC - st.NumForcedGC - l.gc0),
		"resource.entry_util":         l.s.entryUtil,
		"resource.mem_util":           l.s.memUtil,
		"fabric.hops_per_pkt":         div(pk, float64(l.replayed)),
		"fabric.ns_per_hop":           div(float64(l.replayNs), pk),
		"trace.deploy_overhead_ratio": div(l.deployOn.median(), l.deployOff.median()),
		"trace.replay_overhead_ratio": div(l.replayOff.median(), l.replayOn.median()),
	}
	for _, name := range []string{
		"lang.parse_ms", "lang.translate_ms", "smt.allocate_ms", "core.install_ms", "core.entries_per_deploy",
		"rmt.republish_ms", "journal.commit_ms", "journal.bytes_per_op", "ctl.lock_wait_ms",
		"wire.overhead_ms", "wire.writebatch_ms", "wire.readstream_ms",
		"upgrade.prepare_ms", "upgrade.cutover_ms", "upgrade.commit_ms",
		"traffic.alloc_bytes_per_replay", "fleet.reconcile_noop_ms", "fleet.repair_units",
		"fleet.place_ms", "fleet.fanout_ms", "trace.residual_share",
	} {
		out[name] = med(name)
	}
	for _, v := range []rmt.Verdict{rmt.VerdictForwarded, rmt.VerdictReflected, rmt.VerdictNoDecision, rmt.VerdictToCPU} {
		out["rmt.verdict_share."+v.String()] = div(float64(l.verdicts[v]), pk)
	}
	for k := class(0); k < nClasses; k++ {
		out["dataplane.program_share."+classNames[k]] = div(float64(l.hits[k]), float64(l.replayed))
	}
	return out
}

// solverNodes reads the solver's published search-node histogram: calls
// and nodes so far.
func solverNodes(ct *controlplane.Controller) (count, sum uint64) {
	raw, err := ct.Obs.JSON()
	if err != nil {
		return 0, 0
	}
	var series []obs.MetricJSON
	if json.Unmarshal(raw, &series) != nil {
		return 0, 0
	}
	for _, m := range series {
		if m.Name == "p4runpro_solver_nodes" {
			return m.Count, m.Sum
		}
	}
	return 0, 0
}
