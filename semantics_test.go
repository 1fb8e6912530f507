package p4runpro

// Semantic gates for the packet path: every verdict of a mixed workload is
// checked against what the linked programs mean — the forwarder sends to
// port 2, each calculator reply carries a op b, and each heavy-hitter sketch
// row counts every packet it saw — across runtime deploy/revoke churn. Run
// with -race in CI.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
	"p4runpro/internal/traffic"
)

// hhMemWords is the heavy-hitter sketch's row width in the standing mix.
const hhMemWords = 1024

// semController opens a controller with the standing workload linked: a
// forwarder for all IPv4 traffic, the calculator (recirculating branch),
// and a heavy-hitter sketch over 10.0.0.0/16 sources (hashing + SALU
// state). More specific filters win, so calculator requests reach the
// calculator and 10.0/16 traffic reaches the sketch.
func semController(t *testing.T) *controlplane.Controller {
	t.Helper()
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		t.Fatal(err)
	}
	calc, _ := programs.Get("calc")
	if _, err := ct.Deploy(calc.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	hh, _ := programs.Get("hh")
	if _, err := ct.Deploy(hh.Source("hh", programs.Params{MemWords: hhMemWords, Elastic: 2})); err != nil {
		t.Fatal(err)
	}
	return ct
}

// isHH reports whether the sketch's 10.0.0.0/16 source filter selects p.
func isHH(p *pkt.Packet) bool { return p.IP4 != nil && p.IP4.Src>>16 == 10<<8 }

// checkVerdict compares one packet's disposition with the standing
// programs' semantics. Calculator requests are reflected with a op b (an
// unknown opcode is dropped); sketch traffic stays below the report
// threshold, so the sketch makes no forwarding decision; everything else is
// forwarded to port 2.
func checkVerdict(p *pkt.Packet, inPort int, r rmt.Result) error {
	switch {
	case p.Calc != nil:
		c := p.Calc
		var want uint32
		switch c.Op {
		case pkt.CalcAdd:
			want = c.A + c.B
		case pkt.CalcSub:
			want = c.A - c.B
		case pkt.CalcAnd:
			want = c.A & c.B
		case pkt.CalcOr:
			want = c.A | c.B
		case pkt.CalcXor:
			want = c.A ^ c.B
		default:
			if r.Verdict != rmt.VerdictDropped {
				return fmt.Errorf("calc op %d: %v, want dropped", c.Op, r.Verdict)
			}
			return nil
		}
		if r.Verdict != rmt.VerdictReflected || r.OutPort != inPort || c.Result != want {
			return fmt.Errorf("calc %d op %d %d: %v port %d result %d, want reflected port %d result %d",
				c.A, c.Op, c.B, r.Verdict, r.OutPort, c.Result, inPort, want)
		}
	case isHH(p):
		if r.Verdict != rmt.VerdictNoDecision {
			return fmt.Errorf("sketch packet %v: %v port %d, want no-decision", p.FiveTuple(), r.Verdict, r.OutPort)
		}
	default:
		if r.Verdict != rmt.VerdictForwarded || r.OutPort != 2 {
			return fmt.Errorf("forwarder packet %v: %v port %d, want forwarded port 2", p.FiveTuple(), r.Verdict, r.OutPort)
		}
	}
	return nil
}

// checkSketchRows requires each of the sketch's count-min rows to sum to
// the number of packets the sketch saw: every packet adds one to one word
// of each row, so a lost or stolen packet shows as a short sum.
func checkSketchRows(t *testing.T, ct *controlplane.Controller, want uint64) {
	t.Helper()
	for _, row := range []string{"mem_cms_row1", "mem_cms_row2"} {
		words, err := ct.ReadMemoryRange("hh", row, 0, hhMemWords)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, w := range words {
			sum += uint64(w)
		}
		if sum != want {
			t.Errorf("%s sums to %d, want %d sketch packets", row, sum, want)
		}
	}
}

// calcPkt builds the i-th calculator request, cycling through the five
// opcodes and one unknown opcode.
func calcPkt(i int) *pkt.Packet {
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: uint16(3 + i%16), Proto: pkt.ProtoUDP}
	return pkt.NewCalc(flow, uint32(1+i%6), 100+uint32(i), 3+uint32(i%5))
}

// fwdPkt builds the i-th forwarder-only packet (a source outside 10.0/16).
func fwdPkt(i int) *pkt.Packet {
	flow := pkt.FiveTuple{SrcIP: uint32(i), DstIP: uint32(7 + i), SrcPort: 5, DstPort: 53, Proto: pkt.ProtoUDP}
	return pkt.NewUDP(flow, 128)
}

// semFrames builds a deterministic mixed workload: calculator requests
// (including the recirculating SUB branch), TCP flows for the sketch, and
// generic UDP for the forwarder. It returns the frames and how many of them
// the sketch should count.
func semFrames() (frames [][]byte, hh uint64) {
	for i := 0; i < 128; i++ {
		frames = append(frames, calcPkt(i).Marshal())
	}
	for i := 0; i < 256; i++ {
		flow := pkt.FiveTuple{
			SrcIP: pkt.IP(10, 0, 0, byte(i%16)), DstIP: pkt.IP(10, 1, 0, byte(i%8)),
			SrcPort: uint16(1000 + i%32), DstPort: 80, Proto: pkt.ProtoTCP,
		}
		frames = append(frames, pkt.NewTCP(flow, pkt.TCPAck, 256).Marshal())
		hh++
	}
	for i := 0; i < 64; i++ {
		frames = append(frames, fwdPkt(i).Marshal())
	}
	return frames, hh
}

// cmsChurn links and unlinks one count-min instance whose filter ties the
// sketch's; the sketch, linked first, keeps winning the tie throughout.
func cmsChurn(ct *controlplane.Controller, i int) error {
	spec, _ := programs.Get("cms")
	name, src := programs.Instantiate(spec, i, programs.DefaultParams())
	if _, err := ct.Deploy(src); err != nil {
		return fmt.Errorf("churn deploy: %w", err)
	}
	if _, err := ct.Revoke(name); err != nil {
		return fmt.Errorf("churn revoke: %w", err)
	}
	return nil
}

// TestMixedWorkloadSemantics replays the mixed frame sequence through one
// switch and checks every verdict against program semantics, with a cms
// deploy/revoke round in the middle of the sequence. Afterwards each sketch
// row must have counted exactly the sketch's frames.
func TestMixedWorkloadSemantics(t *testing.T) {
	ct := semController(t)
	frames, hh := semFrames()
	for i, f := range frames {
		if i == len(frames)/2 {
			if err := cmsChurn(ct, i); err != nil {
				t.Fatal(err)
			}
		}
		r, err := ct.SW.InjectBytes(f, 1)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := checkVerdict(r.Packet, 1, r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	checkSketchRows(t, ct, hh)
	if m := ct.SW.Metrics(); m.Packets != uint64(len(frames)) {
		t.Fatalf("switch counted %d packets, injected %d", m.Packets, len(frames))
	}
}

// checkingInjector checks every verdict the replay produces against program
// semantics as it happens, and counts the sketch's packets. It implements
// traffic.BatchInjector, so ReplayParallel drives it in bursts.
type checkingInjector struct {
	t      *testing.T
	sw     *rmt.Switch
	hh     atomic.Uint64
	failed atomic.Bool
}

func (c *checkingInjector) check(p *pkt.Packet, port int, r rmt.Result) {
	if isHH(p) {
		c.hh.Add(1)
	}
	if err := checkVerdict(p, port, r); err != nil && !c.failed.Swap(true) {
		c.t.Error(err)
	}
}

func (c *checkingInjector) Inject(p *pkt.Packet, port int) rmt.Result {
	r := c.sw.Inject(p, port)
	c.check(p, port, r)
	return r
}

func (c *checkingInjector) InjectBatch(items []rmt.BatchItem) {
	c.sw.InjectBatch(items)
	for i := range items {
		c.check(items[i].Pkt, items[i].Port, items[i].Res)
	}
}

// TestReplayChurnWithDeploys races parallel batched replay against real
// deploy/revoke churn: cms instances link and unlink at scheduled replay
// times and, concurrently, from a goroutine of their own. The standing
// programs' verdicts must never change — each one is checked against
// program semantics as it is produced — and the sketch must count every
// packet it was sent.
func TestReplayChurnWithDeploys(t *testing.T) {
	ct := semController(t)
	cfg := traffic.DefaultConfig()
	cfg.DurationMs = 60
	tr := traffic.Generate(cfg)
	for f, n := range tr.Counts {
		if n >= 1024 {
			t.Fatalf("flow %v has %d packets, at the sketch's report threshold", f, n)
		}
	}
	for i := 0; i < 256; i++ {
		at := float64(i) * float64(cfg.DurationMs) / 256
		tr.Events = append(tr.Events,
			traffic.Event{AtMs: at, Pkt: calcPkt(i), Port: 1},
			traffic.Event{AtMs: at, Pkt: fwdPkt(i), Port: 1})
	}
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].AtMs < tr.Events[j].AtMs })

	sched := make([]traffic.Action, 0, 3)
	for i := 0; i < 3; i++ {
		sched = append(sched, traffic.Action{AtMs: float64(10 + 15*i), Do: func() {
			if err := cmsChurn(ct, 100+i); err != nil {
				t.Error(err)
			}
		}})
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // unscheduled churn, racing the replay workers
		defer churn.Done()
		for i := 200; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := cmsChurn(ct, i); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	inj := &checkingInjector{t: t, sw: ct.SW}
	res := traffic.ReplayParallel(tr, inj, sched, 10, max(2, runtime.GOMAXPROCS(0)))
	close(stop)
	churn.Wait()
	if res.Packets != len(tr.Events) {
		t.Fatalf("replayed %d of %d packets", res.Packets, len(tr.Events))
	}
	checkSketchRows(t, ct, inj.hh.Load())
}

// TestUpdateMidReplayNoStalePlan swaps a forwarding program's output port
// with a hitless upgrade (prepare, cutover, commit) while background
// traffic flows. An upgrade leaves no gap, so every packet — before, during,
// and after each swap — must leave on the old or the new port, and the first
// packet injected after a cutover returns must already use the new one.
//
// Consistency across a whole packet rests on the pipeline draining between
// entry writes: on hardware a packet crosses every stage long before the
// control plane's next write lands. A goroutine, though, can be descheduled
// mid-packet for as long as an entire upgrade takes, so before Commit
// deletes v1 the test waits until each packet in flight at cutover has left
// the switch.
func TestUpdateMidReplayNoStalePlan(t *testing.T) {
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const fwdTo = "program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(%d); }"
	if _, err := ct.Deploy(fmt.Sprintf(fwdTo, 2)); err != nil {
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != 2 {
		t.Fatalf("pre-update port %d", r.OutPort)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Bool
	done := make([]atomic.Uint64, max(2, runtime.GOMAXPROCS(0)-1))
	for w := range done {
		wg.Add(1)
		go func() { // background traffic across the updates
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1)
				if (r.Verdict != rmt.VerdictForwarded || (r.OutPort != 2 && r.OutPort != 3)) && !failed.Swap(true) {
					t.Errorf("mid-update packet: %v port %d", r.Verdict, r.OutPort)
				}
				done[w].Add(1)
			}
		}()
	}
	drain := func() { // wait out every packet in flight now
		for w := range done {
			for n := done[w].Load(); done[w].Load() == n; {
				runtime.Gosched()
			}
		}
	}
	swap := func(round, port int) {
		if _, err := ct.UpgradePrepare("fwd", fmt.Sprintf(fwdTo, port)); err != nil {
			t.Fatalf("round %d: prepare: %v", round, err)
		}
		if _, err := ct.UpgradeCutover("fwd", 2); err != nil {
			t.Fatalf("round %d: cutover: %v", round, err)
		}
		// Cutover returned: no packet injected from here on may take the
		// pre-update path.
		if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != port {
			t.Fatalf("round %d: stale path after cutover: port %d, want %d", round, r.OutPort, port)
		}
		drain()
		if _, err := ct.UpgradeCommit("fwd"); err != nil {
			t.Fatalf("round %d: commit: %v", round, err)
		}
		if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != port {
			t.Fatalf("round %d: port %d after commit, want %d", round, r.OutPort, port)
		}
	}
	for i := 0; i < 20; i++ {
		swap(i, 3)
		swap(i, 2)
	}
	close(stop)
	wg.Wait()
}
