package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/fabric"
	"p4runpro/internal/fleet"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

// Sizes of the standing state every workload sets up.
const (
	mixPackets     = 50000 // single-switch trace length
	fabricPackets  = 20000 // fabric trace length
	postcardEvery  = 1024  // p4rpd's default postcard sampling
	fillChunk      = 50    // occupancy fill: sources per DeployAll call
	mempWords      = 4096  // memory-batch target block size
	upgIdle        = 1     // idle filter index of the upgrade target
	mempIdle       = 2     // idle filter index of the memory-batch target
	firstFreeIdle  = 16    // first idle filter index handed to new programs
	fabricLeafMem  = 1024  // leaf up_cms words
	fabricUplinkIn = 1     // edge ingress port at leaf0
	tracerCapacity = 16384 // traces a traced run keeps in memory
)

// stack is one provisioned system under test: the switch (or the three
// fabric switches), their journaled controllers, the fleet over them, the
// loopback wire server and its one client, and the seeded trace.
type stack struct {
	w    workload
	seed int64
	rng  *rand.Rand
	dir  string

	ct      *controlplane.Controller   // driven over the wire (leaf0 on the fabric)
	members []*controlplane.Controller // fleet members, ct first
	names   []string
	fab     *fabric.Fabric
	fl      *fleet.Fleet
	srv     *wire.Server
	cli     *wire.Client
	tracer  *trace.Tracer // nil in untraced runs

	wt        *workTrace
	passes    [nClasses]int // pipeline passes of each mix program
	cacheVals [cachedKeys]uint32
	dips      map[uint32]bool
	zeros     []controlplane.MemWrite // zero writes to addresses 0.., for resetState

	nextIdle int      // next idle filter index
	kinds    int      // idle programs rendered so far
	live     []string // churnable programs, oldest first
	units    []string // fleet units, oldest first
	upgPort  int      // port the upgrade target forwards to now

	entryUtil, memUtil float64 // ct's RPB utilization after set-up
}

// newStack provisions a workload's system from its seed. All state lives
// under a fresh directory below workdir.
func newStack(w workload, seed int64, workdir string, traced bool) (s *stack, err error) {
	s = &stack{w: w, seed: seed, rng: rand.New(rand.NewSource(seed)), nextIdle: firstFreeIdle, upgPort: 2}
	if s.dir, err = os.MkdirTemp(workdir, "stack-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if traced {
		// Room for every trace of a phase: span trees are read when the
		// phase ends.
		s.tracer = trace.New(trace.Options{Capacity: tracerCapacity})
	}
	cfg, opt := rmt.DefaultConfig(), core.DefaultOptions()
	s.names = []string{"s0"}
	if w.fabric {
		s.names = []string{"leaf0", "leaf1", "spine0"}
	}
	for _, n := range s.names {
		// Every controller journals (p4rpd -wal <dir> -wal-sync none), so
		// every control operation crosses the journal's encode and write.
		// It does not fsync: on a shared 2-vCPU host, three runs of
		// ctl-occupied with fsync gave mem_batch_wps of 1.3 to 3.6 M
		// words/s, three without gave 5.1 to 6.0.
		ct, err := controlplane.Recover(filepath.Join(s.dir, n), cfg, opt, journal.Options{Sync: journal.SyncNone})
		if err != nil {
			return s, fmt.Errorf("provision %s: %w", n, err)
		}
		ct.SW.EnablePostcards(postcardEvery, 0)
		ct.SetTracing(s.tracer, nil)
		s.members = append(s.members, ct)
	}
	s.ct = s.members[0]
	s.zeros = make([]controlplane.MemWrite, max(mixMemWords, fabricLeafMem))
	for i := range s.zeros {
		s.zeros[i].Addr = uint32(i)
	}
	if w.fabric {
		err = s.setupFabric(cfg)
	} else {
		err = s.setupMix()
	}
	if err != nil {
		return s, err
	}
	if err := s.deployAll(s.ct, []string{
		fwdSrc("upg", idleFilter(upgIdle), s.upgPort),
		counterSrc("memp", idleFilter(mempIdle), "bulk", mempWords, 2),
	}); err != nil {
		return s, err
	}
	if err := s.fill(w.background); err != nil {
		return s, err
	}
	if err := s.setupFleet(opt); err != nil {
		return s, err
	}
	var used, capa, mused, mcapa float64
	for _, u := range s.ct.Utilization() {
		used, capa = used+float64(u.EntriesUsed), capa+float64(u.EntriesCap)
		mused, mcapa = mused+float64(u.MemUsed), mcapa+float64(u.MemCap)
	}
	s.entryUtil, s.memUtil = used/capa, mused/mcapa
	s.srv = wire.NewServer(s.ct, nil)
	s.srv.Tracer = s.tracer
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return s, err
	}
	if s.cli, err = wire.Dial(addr); err != nil {
		return s, err
	}
	return s, nil
}

// setupMix deploys the four mix programs, loads the cache values, the lb
// DIPs and port pool, and generates the trace.
func (s *stack) setupMix() error {
	if err := s.deployAll(s.ct, []string{
		figure8("cache", mixProgram[clsCache], cacheFilter, programs.Params{MemWords: 256, Elastic: 2 * cachedKeys}),
		figure8("lb", mixProgram[clsLB], lbFilter, programs.Params{MemWords: mixMemWords, Elastic: 2 * lbPoolPorts}),
		figure8("hh", mixProgram[clsHH], hhFilter, programs.Params{MemWords: mixMemWords}),
		fwdSrc(mixProgram[clsFwd], fwdFilter, fwdPort),
	}); err != nil {
		return err
	}
	for _, p := range s.ct.Programs() {
		for k, name := range mixProgram {
			if p.Name == name {
				s.passes[k] = p.Passes
			}
		}
	}
	vals := make([]controlplane.MemWrite, cachedKeys)
	for i := range s.cacheVals {
		s.cacheVals[i] = s.rng.Uint32() | 1
		vals[i] = controlplane.MemWrite{Addr: uint32(i), Value: s.cacheVals[i]}
	}
	if _, err := s.ct.WriteMemoryBatch(mixProgram[clsCache], "mem1", vals); err != nil {
		return err
	}
	dips := make([]controlplane.MemWrite, mixMemWords)
	ports := make([]controlplane.MemWrite, mixMemWords)
	s.dips = make(map[uint32]bool)
	for i := range dips {
		dip := pkt.IP(10, 10, 200, byte(s.rng.Intn(250)+1))
		s.dips[dip] = true
		dips[i] = controlplane.MemWrite{Addr: uint32(i), Value: dip}
		ports[i] = controlplane.MemWrite{Addr: uint32(i), Value: uint32(lbPortBase + s.rng.Intn(lbPoolPorts))}
	}
	if _, err := s.ct.WriteMemoryBatch(mixProgram[clsLB], "dip_pool", dips); err != nil {
		return err
	}
	if _, err := s.ct.WriteMemoryBatch(mixProgram[clsLB], "port_pool", ports); err != nil {
		return err
	}
	s.wt = genMixTrace(s.seed, mixPackets)
	return nil
}

// setupFabric wires leaf0, leaf1 and spine0 as a leaf-spine and deploys
// BenchmarkFabricReplay's programs: each leaf counts edge packets into a
// sketch and sends them up, the spine routes 10.101/16 to leaf1, and leaf1
// delivers what comes down to port 2.
func (s *stack) setupFabric(cfg rmt.Config) error {
	s.fab = fabric.New(fabric.Options{})
	for i, n := range s.names {
		if _, err := s.fab.Add(n, s.members[i].SW); err != nil {
			return err
		}
	}
	if err := s.fab.WireLeafSpine(2, 1, cfg, 0); err != nil {
		return err
	}
	up := s.fab.LeafUplinkPort(0)
	leaf := fmt.Sprintf(`@ up_cms %d
program up(<meta.ingress_port, %d, 0xffffffff>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(up_cms);
    MEMADD(up_cms);
    FORWARD(%d);
}
program down(<meta.ingress_port, %d, 0xffffffff>) {
    FORWARD(2);
}
`, fabricLeafMem, fabricUplinkIn, up, up)
	spine := fmt.Sprintf("program to1(<hdr.ipv4.dst, 10.101.0.0, 0xffff0000>) {\n    FORWARD(%d);\n}\n", s.fab.SpineDownlinkPort(1))
	for i, src := range []string{leaf, leaf, spine} {
		if err := s.deployAll(s.members[i], []string{src}); err != nil {
			return err
		}
	}
	s.wt = genFabricTrace(s.seed, fabricPackets)
	return nil
}

// fill links n idle Figure 8 programs, in DeployAll chunks.
func (s *stack) fill(n int) error {
	for done := 0; done < n; {
		var srcs []string
		for ; done < n && len(srcs) < fillChunk; done++ {
			name, src := s.occupant()
			srcs = append(srcs, src)
			s.live = append(s.live, name)
		}
		if err := s.deployAll(s.ct, srcs); err != nil {
			return err
		}
	}
	return nil
}

// setupFleet puts every member into one fleet, as `p4rpd -fleet` does,
// and places the standing units. The health and reconcile loops are not
// started: the benchmark runs every reconcile pass itself.
func (s *stack) setupFleet(opt core.Options) error {
	s.fl = fleet.New(fleet.Options{Policy: fleet.ReplicateK{K: s.w.replicas}, ScratchOptions: opt})
	s.fl.SetTracing(s.tracer, nil)
	for i, n := range s.names {
		if err := s.fl.AddMember(n, fleet.Local(s.members[i])); err != nil {
			return err
		}
	}
	for len(s.units) < s.w.units {
		name, src := s.unitSrc()
		if _, err := s.fl.Deploy(src, s.w.replicas); err != nil {
			return fmt.Errorf("fleet deploy %s: %w", name, err)
		}
		s.units = append(s.units, name)
	}
	return nil
}

// occupant renders the next idle Figure 8 instance, rotating through
// cache, lb and hh so every workload deploys the three in equal parts.
func (s *stack) occupant() (name, src string) {
	k := s.kinds
	s.kinds++
	return occupantSrc(k, s.idle())
}

// journalBytes is the size of ct's active journal segment.
func (s *stack) journalBytes() int64 { return s.ct.Journal().SegmentBytes() }

func (s *stack) unitSrc() (name, src string) {
	i := s.idle()
	name = fmt.Sprintf("fu_%d", i)
	return name, counterSrc(name, idleFilter(i), "fm", 64, 2)
}

func (s *stack) idle() int {
	i := s.nextIdle
	s.nextIdle++
	if s.nextIdle == 1<<16 {
		s.nextIdle = firstFreeIdle
	}
	return i
}

// deployAll links sources on ct through the controller API (set-up only).
func (s *stack) deployAll(ct *controlplane.Controller, sources []string) error {
	outs, err := ct.DeployAll(sources, true)
	if err != nil {
		return fmt.Errorf("set-up deploy: %w", err)
	}
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("set-up deploy: %w", o.Err)
		}
	}
	return nil
}

// close stops the server, closes every journal and removes the stack's
// directory.
func (s *stack) close() {
	if s.cli != nil {
		s.cli.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, ct := range s.members {
		ct.Journal().Close()
	}
	os.RemoveAll(s.dir)
}
