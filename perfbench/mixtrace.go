package main

import (
	"p4runpro/internal/pkt"
	"p4runpro/internal/traffic"
)

// class is the mix program a packet of the trace belongs to.
type class int

const (
	clsCache class = iota
	clsLB
	clsHH
	clsFwd
	nClasses
)

var classNames = [nClasses]string{"cache", "lb", "hh", "fwd"}

// mixProgram names the deployed program of each class.
var mixProgram = [nClasses]string{"mix_cache", "mix_lb", "mix_hh", "mix_fwd"}

// declaredShare is the share of trace packets each mix program claims.
// The run fails when a measured share leaves [share-shareTol,
// share+shareTol]: traffic.Generate's defaults alone would send every
// packet to hh (its 10.0/16 source filter) and none anywhere else.
var declaredShare = [nClasses]float64{0.25, 0.30, 0.20, 0.25}

const shareTol = 0.05

// Trace shaping.
const (
	traceMs      = 100  // generated trace length; replay ignores timing
	avgFrameB    = 742  // mean frame size of traffic.Generate's size mix
	cacheFrameB  = 128  // cache-protocol frame size
	cachedKeys   = 8    // keys 0x8888.. resident in mix_cache
	lbPoolPorts  = 4    // lb forwards to ports lbPortBase..+3
	lbPortBase   = 4    // first lb pool port
	fwdPort      = 2    // mix_fwd's egress port
	cacheMissOut = 32   // mix_cache's miss port
	mixMemWords  = 1024 // lb pools and hh sketch rows
	sampleEvery  = 16   // one event in this many is also injected and timed alone
)

// workTrace is a generated trace with its ground truth: each event's
// class, the per-class packet counts, and the pristine packets the
// replayed copies are restored from (programs rewrite headers in place).
type workTrace struct {
	tr       *traffic.Trace
	pristine []*pkt.Packet
	class    []class
	counts   [nClasses]uint64
	hits     uint64 // cache reads of a resident key
	sample   []int  // event indexes injected one at a time
}

// mbpsFor returns the offered load that makes a traceMs-long generated
// trace carry about n frames of size frameB.
func mbpsFor(n int, frameB int) float64 {
	return float64(n) * float64(frameB) * 8 / (traceMs * 1000)
}

// genMixTrace builds the single-switch trace: four generated feeds, one per
// mix program, on disjoint address regions, merged in time order. hh's
// feed concentrates on four heavy flows so each crosses hh's report
// threshold (1024) within one replay and takes the report branch.
func genMixTrace(seed int64, total int) *workTrace {
	feed := func(off int64, c class, src, dst [2]byte, heavy int, heavyShare float64) traffic.Feed {
		cfg := traffic.DefaultConfig()
		cfg.Seed = seed*8 + off
		cfg.DurationMs = traceMs
		cfg.RateMbps = mbpsFor(int(declaredShare[c]*float64(total)), avgFrameB)
		cfg.SrcPrefix, cfg.DstPrefix = src, dst
		cfg.HeavyFlows, cfg.HeavyShare = heavy, heavyShare
		return traffic.Feed{Trace: traffic.Generate(cfg)}
	}
	cc := traffic.DefaultCacheConfig()
	cc.Seed = seed*8 + 4
	cc.DurationMs = traceMs
	cc.PktBytes = cacheFrameB
	cc.RateMbps = mbpsFor(int(declaredShare[clsCache]*float64(total)), cacheFrameB)
	cc.CachedKeys = cachedKeys
	cc.WriteShare = 0 // reads only, so every hit must reflect the value set up
	tr := traffic.MergeFeeds(
		feed(1, clsLB, [2]byte{10, 4}, [2]byte{10, 10}, 100, 0.5),
		feed(2, clsHH, [2]byte{10, 1}, [2]byte{10, 11}, 4, 0.6),
		feed(3, clsFwd, [2]byte{10, 5}, [2]byte{10, 12}, 100, 0.5),
		traffic.Feed{Trace: traffic.GenerateCache(cc)},
	)
	return newWorkTrace(tr, classify)
}

// genFabricTrace builds the fabric trace of BenchmarkFabricReplay: flows
// into 10.101/16, the prefix spine0 routes to leaf1.
func genFabricTrace(seed int64, total int) *workTrace {
	cfg := traffic.DefaultConfig()
	cfg.Seed = seed
	cfg.Flows, cfg.HeavyFlows = 256, 16
	cfg.DurationMs = traceMs
	cfg.RateMbps = mbpsFor(total, avgFrameB)
	cfg.DstPrefix = [2]byte{10, 101}
	tr := traffic.Generate(cfg)
	for i := range tr.Events {
		tr.Events[i].Node = "leaf0"
	}
	return newWorkTrace(tr, func(*pkt.Packet) class { return clsFwd })
}

// classify maps a generated packet to the program whose region it was
// generated in.
func classify(p *pkt.Packet) class {
	switch {
	case p.UDP != nil && p.UDP.DstPort == pkt.PortNetCache:
		return clsCache
	case p.IP4.Dst>>16 == 10<<8|10:
		return clsLB
	case p.IP4.Src>>16 == 10<<8|1:
		return clsHH
	default:
		return clsFwd
	}
}

func cacheHit(p *pkt.Packet) bool {
	return p.NC != nil && p.NC.Op == pkt.NCRead && p.NC.Key2 == 0 &&
		p.NC.Key1 >= 0x8888 && p.NC.Key1 < 0x8888+cachedKeys
}

func newWorkTrace(tr *traffic.Trace, cls func(*pkt.Packet) class) *workTrace {
	wt := &workTrace{tr: tr}
	for i, ev := range tr.Events {
		c := cls(ev.Pkt)
		wt.class = append(wt.class, c)
		wt.counts[c]++
		if c == clsCache && cacheHit(ev.Pkt) {
			wt.hits++
		}
		wt.pristine = append(wt.pristine, ev.Pkt.Clone())
		if i%sampleEvery == 0 {
			wt.sample = append(wt.sample, i)
		}
	}
	return wt
}

// restore rewrites every replayed packet back to its generated headers,
// so each repetition replays the same input.
func (wt *workTrace) restore() {
	for i, ev := range wt.tr.Events {
		restorePacket(ev.Pkt, wt.pristine[i])
	}
}

func restorePacket(dst, src *pkt.Packet) {
	dst.Bitmap, dst.WireLen = src.Bitmap, src.WireLen
	restoreHdr(&dst.Shim, src.Shim)
	restoreHdr(&dst.Eth, src.Eth)
	restoreHdr(&dst.IP4, src.IP4)
	restoreHdr(&dst.TCP, src.TCP)
	restoreHdr(&dst.UDP, src.UDP)
	restoreHdr(&dst.NC, src.NC)
	restoreHdr(&dst.Calc, src.Calc)
}

func restoreHdr[T any](dst **T, src *T) {
	switch {
	case src == nil:
		*dst = nil
	case *dst == nil:
		v := *src
		*dst = &v
	default:
		**dst = *src
	}
}
