package main

import (
	"fmt"
	"strings"

	"p4runpro/internal/programs"
)

// Program sources the benchmark deploys. The Figure 8 "mixed" programs
// (cache, lb, hh) are rendered by internal/programs with only their
// traffic filter swapped, so the benchmark decides which packets each
// program claims: the four mix programs split the generated trace between
// them, and every other program (occupancy fill, churned instances, fleet
// units) filters on a host address no generated packet carries, so it adds
// occupancy without taking traffic.

// Filters of the four mix programs. Each names a region of the trace the
// others do not touch (see genMixTrace).
const (
	cacheFilter = "<hdr.udp.dst_port, 7777, 0xffff>"
	lbFilter    = "<hdr.ipv4.dst, 10.10.0.0, 0xffff0000>"
	hhFilter    = "<hdr.ipv4.src, 10.1.0.0, 0xffff0000>"
	fwdFilter   = "<hdr.ipv4.dst, 10.12.0.0, 0xffff0000>"
)

// idleFilter is a filter on one 192.168/16 source host: no generated
// packet comes from there. Indexes wrap at 65536, far above the number of
// programs alive at once.
func idleFilter(i int) string {
	return fmt.Sprintf("<hdr.ipv4.src, 192.168.%d.%d, 0xffffffff>", (i>>8)&0xff, i&0xff)
}

// shippedFilter is the traffic filter each Figure 8 program ships with in
// internal/programs, the one literal figure8 swaps for the benchmark's.
var shippedFilter = map[string]string{
	"cache": "<hdr.udp.dst_port, 7777, 0xffff>",
	"lb":    "<hdr.ipv4.dst, 10.0.0.0, 0xffff0000>",
	"hh":    "<hdr.ipv4.src, 10.0.0.0, 0xffff0000>",
}

// figure8 renders the shipped Figure 8 program kind (cache, lb or hh)
// through internal/programs under name, with its filter replaced by
// filter. cache reflects reads of keys 0x8888.. (at addresses 0..) with
// the cached value and forwards misses to port 32; lb rewrites the
// destination to the hashed bucket's DIP and forwards to port k when the
// bucket's port_pool word is k; hh counts every packet in a two-row
// count-min sketch and reports a flow over 1024 once, without forwarding.
func figure8(kind, name, filter string, p programs.Params) string {
	spec, ok := programs.Get(kind)
	if !ok {
		panic("perfbench: no program " + kind)
	}
	src := spec.Source(name, p)
	if strings.Count(src, shippedFilter[kind]) != 1 {
		panic("perfbench: the " + kind + " source no longer carries its filter " + shippedFilter[kind])
	}
	return strings.Replace(src, shippedFilter[kind], filter, 1)
}

// fwdSrc forwards every claimed packet to one port.
func fwdSrc(name, filter string, port int) string {
	return fmt.Sprintf("program %s(%s) {\n    FORWARD(%d);\n}\n", name, filter, port)
}

// counterSrc counts claimed packets into a hashed memory block and
// forwards them: the fleet units and the memory-batch target.
func counterSrc(name, filter, mem string, memWords, port int) string {
	return fmt.Sprintf("@ %[3]s %[4]d\nprogram %[1]s(%[2]s) {\n    LOADI(sar, 1);\n    HASH_5_TUPLE_MEM(%[3]s);\n    MEMADD(%[3]s);\n    FORWARD(%[5]d);\n}\n",
		name, filter, mem, memWords, port)
}

// occupantSrc renders the idle instance `i` of the Figure 8 mixed set
// (cache, lb or hh by kind) at the paper's experiment defaults: 256-word
// memory blocks and two elastic cases. The cache variant keeps its UDP
// port filter so its NetCache header fields stay resolvable.
func occupantSrc(kind int, i int) (name, src string) {
	switch kind % 3 {
	case 0:
		name = fmt.Sprintf("occ_cache_%d", i)
		return name, figure8("cache", name, idleFilter(i)+", "+cacheFilter, programs.DefaultParams())
	case 1:
		name = fmt.Sprintf("occ_lb_%d", i)
		return name, figure8("lb", name, idleFilter(i), programs.DefaultParams())
	default:
		name = fmt.Sprintf("occ_hh_%d", i)
		return name, figure8("hh", name, idleFilter(i), programs.DefaultParams())
	}
}
