package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/fabric"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
	"p4runpro/internal/traffic"
	"p4runpro/internal/wire"
)

// Control-phase shape.
const (
	extrasEvery  = 10 // every n-th control cycle of a phase, the first included, also runs batch, memory and upgrade ops
	batchSize    = 8  // sources per deploy.batch
	replayBucket = 50 // traffic.Replay bucket, ms
	probePort    = 7  // ingress port of upgrade probes; no port-filtered program claims it
)

// recorder collects one run's samples. Series names are the metric
// names they feed.
type recorder struct {
	s       map[string]*series
	memPeak uint64
}

func newRecorder() *recorder { return &recorder{s: make(map[string]*series)} }

func (r *recorder) add(name string, v float64) {
	sr, ok := r.s[name]
	if !ok {
		sr = &series{}
		r.s[name] = sr
	}
	sr.add(v)
}

func (r *recorder) get(name string) series {
	if sr, ok := r.s[name]; ok {
		return append(series(nil), *sr...)
	}
	return nil
}

// sampleHeap folds the current Go heap in use into the peak.
func (r *recorder) sampleHeap() {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	if st.HeapInuse > r.memPeak {
		r.memPeak = st.HeapInuse
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runner drives a stack through the measured phases.
type runner struct {
	s   *stack
	rec *recorder
	chk *checker
	lay *layers // nil in untraced runs

	repairs int    // repairs run so far
	setups  series // seconds per set-up

	seed    int64  // the run's seed, for the set-ups between rounds
	workdir string // where set-ups keep their state
}

// traced reports whether the current round records spans. Traced runs
// alternate whole rounds, not single operations: the garbage a traced
// operation leaves is collected on the time of whatever runs next, so
// per-operation alternation charges tracing's cost to untraced samples.
func (r *runner) traced() bool { return r.s.tracer.Enabled() }

// span opens the benchmark's own root span around one public call.
func (r *runner) span(name string) (context.Context, *trace.Span) {
	return r.s.tracer.Start(context.Background(), name)
}

// ---- packet phase ----

// packetRep is one timed repetition: reset, replay the whole trace, check
// it, then inject the 1-in-sampleEvery sample one packet at a time.
func (r *runner) packetRep() {
	s := r.s
	traced := r.traced()
	var mem *[2]runtime.MemStats
	if r.lay != nil {
		mem = new([2]runtime.MemStats)
	}
	n := len(s.wt.tr.Events)
	before, after, elapsed, fres, err := r.replay(mem)
	if !r.chk.op(err, "replay") {
		return
	}
	r.chk.ops(n)
	pps := float64(n) / elapsed.Seconds()
	r.rec.add("replay_pps", pps)
	if r.lay != nil {
		r.lay.replay(traced, pps, n, elapsed, before, after, mem[0], mem[1])
	}
	if fres != nil {
		r.checkFabricReplay(fres, n)
	} else {
		r.checkMixReplay(before, after, n)
	}
	s.wt.restore()
	r.injectSample()
	r.rec.sampleHeap()
}

// replay resets the switch state and the trace, then replays the whole
// trace once, returning the counters around it and its wall time. The
// fabric result is nil on a single switch. A non-nil mem receives the heap
// statistics read just before and just after the timed replay, so they
// leave out the reset.
func (r *runner) replay(mem *[2]runtime.MemStats) (before, after counters, elapsed time.Duration, fres *fabric.ReplayResult, err error) {
	s := r.s
	r.resetState()
	s.wt.restore()
	before = r.snapshot()
	if mem != nil {
		runtime.ReadMemStats(&mem[0])
	}
	t0 := time.Now()
	if s.fab != nil {
		fres, err = s.fab.Replay(s.wt.tr, nil, fabric.ReplayOptions{})
	} else {
		traffic.Replay(s.wt.tr, s.ct.SW, nil, replayBucket)
	}
	elapsed = time.Since(t0)
	if mem != nil {
		runtime.ReadMemStats(&mem[1])
	}
	after = r.snapshot()
	return before, after, elapsed, fres, err
}

// resetState gives every repetition the same starting state: sketch
// memory zeroed through the controller API and the CPU report queue
// drained.
func (r *runner) resetState() {
	s := r.s
	zero := func(ct *controlplane.Controller, prog, mem string, words int) {
		_, err := ct.WriteMemoryBatch(prog, mem, s.zeros[:words])
		r.chk.op(err, "reset "+prog+"."+mem)
	}
	if s.fab != nil {
		zero(s.members[0], "up", "up_cms", fabricLeafMem)
	} else {
		for _, mem := range []string{"mem_cms_row1", "mem_cms_row2", "mem_bf_row1", "mem_bf_row2"} {
			zero(s.ct, mixProgram[clsHH], mem, mixMemWords)
		}
	}
	for _, ct := range s.members {
		ct.SW.DrainCPU()
	}
}

// counters is the packet-path state read around a replay.
type counters struct {
	m         []rmt.MetricsSnapshot // per member switch
	hits      [nClasses]uint64
	postcards uint64
}

func (r *runner) snapshot() counters {
	var c counters
	for _, ct := range r.s.members {
		c.m = append(c.m, ct.SW.Metrics())
		c.postcards += ct.SW.PostcardCount()
	}
	if r.s.fab == nil {
		for k := range c.hits {
			c.hits[k] = r.s.ct.ProgramPacketHits(mixProgram[k])
		}
	}
	return c
}

// checkMixReplay checks one single-switch replay against the trace's
// ground truth and the programs' semantics: every packet claimed by its
// own program, verdicts as each program defines them, the claimed shares
// inside the declared ones, and each hh sketch row summing to the hh
// packet count.
func (r *runner) checkMixReplay(b, a counters, n int) {
	wt := r.s.wt
	bm, am := b.m[0], a.m[0]
	r.chk.count(am.Packets-bm.Packets, uint64(n), "replayed packets")
	for k := class(0); k < nClasses; k++ {
		// A program's filter entry matches once per pipeline pass.
		got := (a.hits[k] - b.hits[k]) / uint64(r.s.passes[k])
		r.chk.count(got, wt.counts[k], "packets claimed by "+mixProgram[k])
		share := float64(got) / float64(n)
		r.chk.expect(share >= declaredShare[k]-shareTol && share <= declaredShare[k]+shareTol,
			"%s claimed %.3f of the trace, declared %.2f±%.2f", mixProgram[k], share, declaredShare[k], shareTol)
	}
	v := func(x rmt.Verdict) uint64 { return am.Verdicts[x] - bm.Verdicts[x] }
	r.chk.count(v(rmt.VerdictForwarded), wt.counts[clsLB]+wt.counts[clsFwd]+wt.counts[clsCache]-wt.hits, "forwarded packets")
	r.chk.count(v(rmt.VerdictReflected), wt.hits, "reflected cache hits")
	r.chk.count(v(rmt.VerdictNoDecision)+v(rmt.VerdictToCPU), wt.counts[clsHH], "hh packets without a forwarding decision")
	nd := float64(v(rmt.VerdictNoDecision)+v(rmt.VerdictToCPU)) / float64(n)
	r.chk.expect(nd >= declaredShare[clsHH]-shareTol && nd <= declaredShare[clsHH]+shareTol,
		"no-decision share %.3f, declared %.2f±%.2f", nd, declaredShare[clsHH], shareTol)
	for _, row := range []string{"mem_cms_row1", "mem_cms_row2"} {
		vals, err := r.s.ct.ReadMemoryRange(mixProgram[clsHH], row, 0, mixMemWords)
		if r.chk.op(err, "read hh "+row) {
			sum := sumWords(vals)
			r.chk.expect(sum == wt.counts[clsHH], "hh %s sums to %d, want the %d hh packets", row, sum, wt.counts[clsHH])
		}
	}
}

// checkFabricReplay checks that the fabric delivered every packet it took
// in, over leaf0 -> spine0 -> leaf1, and that leaf0's sketch counted each.
func (r *runner) checkFabricReplay(res *fabric.ReplayResult, n int) {
	r.chk.count(res.Packets, uint64(n), "fabric packets in")
	r.chk.count(res.Delivered, uint64(n), "fabric packets delivered")
	if len(res.Hops) > 2 {
		r.chk.count(res.Hops[2], uint64(n), "fabric deliveries over two links")
	} else {
		r.chk.expect(false, "fabric hop histogram %v has no two-link bucket", res.Hops)
	}
	vals, err := r.s.members[0].ReadMemoryRange("up", "up_cms", 0, fabricLeafMem)
	if r.chk.op(err, "read leaf0 up_cms") {
		sum := sumWords(vals)
		r.chk.expect(sum == uint64(n), "leaf0 up_cms sums to %d, want the %d packets", sum, n)
	}
}

func sumWords(vals []uint32) uint64 {
	var t uint64
	for _, v := range vals {
		t += uint64(v)
	}
	return t
}

// injectSample times single injections of the sampled events and checks
// each outcome against its program's semantics.
func (r *runner) injectSample() {
	s := r.s
	for _, i := range s.wt.sample {
		ev := s.wt.tr.Events[i]
		if s.fab != nil {
			t0 := time.Now()
			d, err := s.fab.Inject("leaf0", ev.Pkt, ev.Port)
			r.rec.add("pkt_ns", float64(time.Since(t0)))
			if r.chk.op(err, "fabric inject") {
				r.chk.expect(d.Delivered == 1 && d.Hops == 2, "fabric inject: delivered %d after %d hops", d.Delivered, d.Hops)
			}
			continue
		}
		t0 := time.Now()
		res := s.ct.SW.Inject(ev.Pkt, ev.Port)
		r.rec.add("pkt_ns", float64(time.Since(t0)))
		r.checkResult(s.wt.class[i], s.wt.pristine[i], res)
	}
}

// checkResult checks one injected packet's outcome from its program's
// semantics.
func (r *runner) checkResult(c class, orig *pkt.Packet, res rmt.Result) {
	switch c {
	case clsCache:
		if cacheHit(orig) {
			want := r.s.cacheVals[orig.NC.Key1-0x8888]
			r.chk.expect(res.Verdict == rmt.VerdictReflected && res.Packet.NC.Value == want,
				"cache hit on key %#x: %v value %#x, want reflected %#x", orig.NC.Key1, res.Verdict, res.Packet.NC.Value, want)
		} else {
			r.chk.expect(res.Verdict == rmt.VerdictForwarded && res.OutPort == cacheMissOut,
				"cache miss: %v to %d, want forwarded to %d", res.Verdict, res.OutPort, cacheMissOut)
		}
	case clsLB:
		r.chk.expect(res.Verdict == rmt.VerdictForwarded && res.OutPort >= lbPortBase && res.OutPort < lbPortBase+lbPoolPorts &&
			r.s.dips[res.Packet.IP4.Dst],
			"lb: %v to %d with dst %#x, want a pool port and a pool DIP", res.Verdict, res.OutPort, res.Packet.IP4.Dst)
	case clsHH:
		r.chk.expect(res.Verdict == rmt.VerdictNoDecision || res.Verdict == rmt.VerdictToCPU,
			"hh: %v, want no-decision or to-cpu", res.Verdict)
	case clsFwd:
		r.chk.expect(res.Verdict == rmt.VerdictForwarded && res.OutPort == fwdPort,
			"fwd: %v to %d, want forwarded to %d", res.Verdict, res.OutPort, fwdPort)
	}
}

// ---- control phase ----

// controlCycle is one closed-loop control cycle: a deploy of a new
// Figure 8 instance and a revoke of the oldest churnable program, so
// occupancy stays put; cycle n of a phase adds the bulk, memory and
// upgrade operations when n is a multiple of extrasEvery, so every phase
// runs them at least once.
func (r *runner) controlCycle(n int) {
	r.deployOne()
	r.revokeOldest()
	if n%extrasEvery == 0 {
		r.batchDeploy()
		r.memBatch()
		r.upgrade()
		r.rec.sampleHeap()
	}
}

// deployOne deploys a new idle Figure 8 instance over the wire.
func (r *runner) deployOne() {
	s := r.s
	name, src := s.occupant()
	traced := r.traced()
	ctx, sp := r.span("bench.deploy")
	jb := s.journalBytes()
	t0 := time.Now()
	res, err := s.cli.DeployCtx(ctx, src)
	lat := time.Since(t0)
	sp.End()
	if !r.chk.op(err, "deploy "+name) {
		return
	}
	r.chk.expect(len(res) == 1 && res[0].Program == name && res[0].Entries > 0, "deploy %s: result %+v", name, res)
	s.live = append(s.live, name)
	r.rec.add("deploy_ms", ms(lat))
	if r.lay != nil {
		r.lay.deploy(traced, lat, sp, res, s.journalBytes()-jb)
	}
}

// revokeOldest revokes the oldest churnable program over the wire.
func (r *runner) revokeOldest() {
	s := r.s
	if len(s.live) == 0 {
		return
	}
	name := s.live[0]
	s.live = s.live[1:]
	ctx, sp := r.span("bench.revoke")
	t0 := time.Now()
	res, err := s.cli.RevokeCtx(ctx, name)
	lat := time.Since(t0)
	sp.End()
	if r.chk.op(err, "revoke "+name) {
		r.chk.expect(res.Entries > 0, "revoke %s: removed no entries", name)
	}
	r.rec.add("revoke_ms", ms(lat))
}

// batchDeploy links batchSize new instances in one deploy.batch, then
// revokes them.
func (r *runner) batchDeploy() {
	s := r.s
	names := make([]string, batchSize)
	srcs := make([]string, batchSize)
	for i := range srcs {
		names[i], srcs[i] = s.occupant()
	}
	t0 := time.Now()
	res, err := s.cli.DeployBatch(srcs, false)
	el := time.Since(t0)
	if !r.chk.op(err, "deploy.batch") {
		return
	}
	ok := res.Deployed == batchSize && len(res.Items) == batchSize
	for i := 0; ok && i < batchSize; i++ {
		it := res.Items[i]
		ok = it.Error == "" && len(it.Programs) == 1 && it.Programs[0].Program == names[i]
	}
	r.chk.expect(ok, "deploy.batch: deployed %d of %d", res.Deployed, batchSize)
	r.rec.add("batch_deploy_pps", batchSize/el.Seconds())
	for _, n := range names {
		_, err := s.cli.Revoke(n)
		r.chk.op(err, "revoke "+n)
	}
}

// memBatch writes the memory-batch target's whole block with fresh
// values through mem.writebatch and reads it back through mem.readstream.
func (r *runner) memBatch() {
	s := r.s
	writes := make([]wire.MemWriteEntry, mempWords)
	for i := range writes {
		writes[i] = wire.MemWriteEntry{Addr: uint32(i), Value: s.rng.Uint32()}
	}
	t0 := time.Now()
	n, err := s.cli.WriteMemoryBatch("memp", "bulk", writes)
	t1 := time.Now()
	if !r.chk.op(err, "mem.writebatch") {
		return
	}
	vals, err := s.cli.ReadMemoryBulk("memp", "bulk", 0, mempWords)
	t2 := time.Now()
	if !r.chk.op(err, "mem.readstream") {
		return
	}
	same := n == mempWords && len(vals) == mempWords
	for i := 0; same && i < mempWords; i++ {
		same = vals[i] == writes[i].Value
	}
	r.chk.expect(same, "mem.readstream did not return what mem.writebatch wrote (%d written, %d read)", n, len(vals))
	r.rec.add("mem_batch_wps", 2*mempWords/t2.Sub(t0).Seconds())
	if r.lay != nil {
		r.lay.add("wire.writebatch_ms", ms(t1.Sub(t0)))
		r.lay.add("wire.readstream_ms", ms(t2.Sub(t1)))
	}
}

// upgrade swaps the upgrade target between forwarding to port 2 and 3
// with a hitless prepare/cutover/commit, then checks a probe packet
// takes the new port.
func (r *runner) upgrade() {
	s := r.s
	port := 5 - s.upgPort
	t0 := time.Now()
	_, err := s.cli.UpgradeStart("upg", fwdSrc("upg", idleFilter(upgIdle), port))
	t1 := time.Now()
	if !r.chk.op(err, "upgrade.start") {
		return
	}
	_, err = s.cli.UpgradeCutover("upg", 2)
	t2 := time.Now()
	if !r.chk.op(err, "upgrade.cutover") {
		return
	}
	st, err := s.cli.UpgradeCommit("upg")
	t3 := time.Now()
	if !r.chk.op(err, "upgrade.commit") {
		return
	}
	s.upgPort = port
	r.chk.expect(st.State == "committed", "upgrade: state %q after commit", st.State)
	probe := pkt.NewUDP(pkt.FiveTuple{SrcIP: pkt.IP(192, 168, 0, upgIdle), DstIP: pkt.IP(10, 9, 9, 9), SrcPort: 9, DstPort: 9, Proto: pkt.ProtoUDP}, 100)
	res := s.ct.SW.Inject(probe, probePort)
	r.chk.expect(res.Verdict == rmt.VerdictForwarded && res.OutPort == port, "upgraded program: %v to %d, want forwarded to %d", res.Verdict, res.OutPort, port)
	r.rec.add("upgrade_ms", ms(t3.Sub(t0)))
	if r.lay != nil {
		r.lay.add("upgrade.prepare_ms", ms(t1.Sub(t0)))
		r.lay.add("upgrade.cutover_ms", ms(t2.Sub(t1)))
		r.lay.add("upgrade.commit_ms", ms(t3.Sub(t2)))
	}
}

// ---- fleet phase ----

// fleetPhase runs fleet cycles until the deadline, at least one. A cycle
// repairs when the phase's repairing cycles so far took no longer than
// its plain ones, so repairs get about half the phase whatever they cost:
// under a millisecond for 4 units on a near-empty switch, most of a second
// at 1000 programs, about a fifth of a second for 200 units on the fabric.
func (r *runner) fleetPhase(until time.Time) {
	var plain, repairing time.Duration
	for n := 0; n == 0 || time.Now().Before(until); n++ {
		repair := repairing <= plain
		t0 := time.Now()
		r.fleetCycle(repair)
		if repair {
			repairing += time.Since(t0)
		} else {
			plain += time.Since(t0)
		}
	}
}

// fleetCycle places one new unit with the workload's replica count and
// retires the oldest, then runs a repair when asked.
func (r *runner) fleetCycle(repair bool) {
	s := r.s
	name, src := s.unitSrc()
	traced := r.traced()
	ctx, sp := r.span("bench.fleet.deploy")
	t0 := time.Now()
	res, err := s.fl.DeployCtx(ctx, src, s.w.replicas)
	lat := time.Since(t0)
	sp.End()
	if r.chk.op(err, "fleet deploy "+name) {
		r.chk.expect(len(res) == 1 && len(res[0].Members) == s.w.replicas, "fleet deploy %s: placed %+v", name, res)
		s.units = append(s.units, name)
	}
	r.rec.add("fleet_deploy_ms", ms(lat))
	if r.lay != nil {
		r.lay.fleetDeploy(traced, lat, sp)
	}
	if len(s.units) > s.w.units {
		_, err := s.fl.Revoke(s.units[0])
		r.chk.op(err, "fleet revoke "+s.units[0])
		s.units = s.units[1:]
	}
	if repair {
		r.repair()
	}
	r.rec.sampleHeap()
}

// repair revokes up to the workload's repair count of units on one member
// behind the fleet's back (each repair picks the next member in turn),
// times the Reconcile pass that restores them, and checks every unit's
// replicas. Traced runs also time a Reconcile pass with nothing to repair
// first.
func (r *runner) repair() {
	s := r.s
	if r.lay != nil {
		t0 := time.Now()
		s.fl.Reconcile()
		r.lay.add("fleet.reconcile_noop_ms", ms(time.Since(t0)))
	}
	vi := r.repairs % len(s.members)
	r.repairs++
	victim := s.names[vi]
	broken := 0
	for _, u := range s.fl.Store().List() {
		if broken == s.w.repair || !slices.Contains(u.Members, victim) {
			continue
		}
		for _, p := range u.Programs {
			_, err := s.members[vi].Revoke(p)
			r.chk.op(err, fmt.Sprintf("revoke %s on %s behind the fleet", p, victim))
		}
		broken++
	}
	t0 := time.Now()
	s.fl.Reconcile()
	r.rec.add("reconcile_ms", ms(time.Since(t0)))
	if r.lay != nil {
		r.lay.add("fleet.repair_units", float64(broken))
	}
	r.checkReplicas()
}

// checkReplicas checks that every fleet unit is on as many members as its
// replica count and that each of those members holds all its programs.
func (r *runner) checkReplicas() {
	s := r.s
	held := make(map[string]map[string]bool)
	for i, ct := range s.members {
		set := make(map[string]bool)
		for _, p := range ct.Compiler.Programs() {
			set[p] = true
		}
		held[s.names[i]] = set
	}
	for _, u := range s.fl.Store().List() {
		ok := len(u.Members) == s.w.replicas
		for _, m := range u.Members {
			for _, p := range u.Programs {
				ok = ok && held[m][p]
			}
		}
		r.chk.expect(ok, "fleet unit %s: members %v after repair, want %d replicas holding it", u.Key, u.Members, s.w.replicas)
	}
}
