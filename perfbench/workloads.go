package main

// workload is one seeded input set and the way the benchmark drives it.
// Every workload measures every end-to-end metric, each at its own
// operating point; they differ in switch occupancy, topology, how packets
// and control operations share the run, and where the time goes.
type workload struct {
	name string
	why  string

	// background is the number of idle Figure 8 programs (cache/lb/hh)
	// filled in at set-up beside the mix programs.
	background int
	// fabric replaces the single switch with the leaf0 -> spine0 -> leaf1
	// leaf-spine whose three controllers are the fleet's members.
	fabric bool
	// share splits each round between the packet, control and fleet
	// phases.
	share [3]float64
	// replicas per fleet unit, units kept placed, and units revoked on one
	// member behind the fleet's back before each repair Reconcile.
	replicas, units, repair int
}

// Fleet sizes. fabric-fleet runs the reconcile operating point measured
// while the benchmark was scoped: 300 units with 2 replicas over 3 Local
// members, 200 of them repaired (a no-op pass took 57 ms there, a repair
// 126-155 ms). On ctl-occupied the fleet's one member is the workload's
// own switch, so every standing unit is a program on it: 300 would lift
// its 1000 programs to the near-full 1300 the workload leaves out. There
// the fleet keeps 8 units (under 1% of the occupancy) and repairs 4,
// enough to report its metrics without moving the occupancy the workload
// states.
const (
	fabricUnits, fabricRepair = 300, 200
	switchUnits, switchRepair = 8, 4
)

var workloads = []workload{
	{
		name: "ctl-occupied",
		why: "closed loop, one wire client and a one-worker replay: lb/hh/cache/fwd traffic and " +
			"deploy/revoke at ~1000 linked programs with a journal, where republishing the switch dominates a deploy",
		background: 1000,
		share:      [3]float64{0.25, 0.4, 0.35},
		replicas:   1, units: switchUnits, repair: switchRepair,
	},
	{
		name: "fabric-fleet",
		why: "closed loop: leaf-spine fabric replay and fleet deploy/repair of 300 units, 2 replicas over 3 members; " +
			"the only workload crossing fabric hops and fleet fan-out",
		fabric:   true,
		share:    [3]float64{0.4, 0.2, 0.4},
		replicas: 2, units: fabricUnits, repair: fabricRepair,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
