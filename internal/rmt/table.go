package rmt

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p4runpro/internal/faults"
)

// fpInsert is the table-entry installation fault point (see internal/faults):
// chaos tests arm it to prove a mid-link insert failure rolls the whole
// program back with every resource released.
var fpInsert = faults.Register("rmt.table.insert")

// EntryID names an installed entry for later deletion.
type EntryID uint64

// TernaryKey is one ternary match field: packet matches when
// key & Mask == Value & Mask. A full mask is an exact match; a zero mask is
// a wildcard.
type TernaryKey struct {
	Value uint32
	Mask  uint32
}

// Exact builds a full-mask key.
func Exact(v uint32) TernaryKey { return TernaryKey{Value: v, Mask: ^uint32(0)} }

// Wild builds a zero-mask (always-matching) key.
func Wild() TernaryKey { return TernaryKey{} }

// Matches reports whether the extracted key value satisfies the ternary key.
func (k TernaryKey) Matches(v uint32) bool { return v&k.Mask == k.Value&k.Mask }

// ActionFunc executes a bound action against the PHV with entry parameters.
type ActionFunc func(*PHV, []uint32)

// Entry is an installed table entry.
type Entry struct {
	ID       EntryID
	Keys     []TernaryKey
	Priority int // higher wins among overlapping ternary entries
	Action   string
	Params   []uint32
	Owner    string // installing program, for bookkeeping and debugging

	// fn is the action implementation, resolved once at Insert so a hit
	// calls it directly instead of looking the action name up per packet.
	fn ActionFunc

	// hits counts packets this entry matched (a direct counter, read via
	// Hits); updated atomically because lookups run lock-free.
	hits uint64
}

// Hits returns the entry's direct counter.
func (e *Entry) Hits() uint64 { return atomic.LoadUint64(&e.hits) }

// The exact-first-key index is split into shards by a hash of the key,
// held in two levels of shardFan: the snapshot header points at shardFan
// groups of shardFan shards each. A mutation copies the header, one group,
// and the one shard it touches, so its cost stays flat as a table fills
// with programs instead of growing with the number of distinct first keys.
const shardFan = 16

type shardGroup [shardFan]map[uint32][]*Entry

// shardOf spreads first-key values over the shardFan² shards (Fibonacci
// hashing), so sequential program IDs land in different shards.
func shardOf(k uint32) uint32 { return (k * 0x9E3779B1) >> 24 }

// tableState is the immutable published match state of a table, and the
// form the packet path executes: entries carry their pre-bound action
// functions, so a lookup against one snapshot is the whole match-action
// step. Every mutation builds a fresh tableState under the writer lock and
// publishes it with one atomic pointer store, so the packet path reads a
// consistent snapshot without taking any lock — the simulator's model of
// the RMT architecture's per-entry update atomicity that P4runpro's
// consistent update relies on (paper §4.3/§5). A snapshot is never mutated
// after publication; entries, shard groups, shard maps, and entry slices
// are shared between snapshots until a writer replaces them (hit counters
// are atomics and survive republication).
type tableState struct {
	// groups is the exact-first-key index: RPB tables always match the
	// program ID exactly as their first key, so entries are bucketed by it
	// (nil groups and shards are empty); entries whose first key is not a
	// full mask go to the wildcard list. Buckets and the wildcard list are
	// sorted by descending priority.
	groups   [shardFan]*shardGroup
	wildcard []*Entry
	count    int

	defaultName   string
	defaultFn     ActionFunc
	defaultParams []uint32
}

// clone copies the state header; groups, shards and slices stay shared.
// Writers replace any of them they modify with a copy before publishing.
func (st *tableState) clone() *tableState {
	ns := *st
	return &ns
}

// shard returns shard i (nil when empty).
func (st *tableState) shard(i uint32) map[uint32][]*Entry {
	if g := st.groups[i/shardFan]; g != nil {
		return g[i%shardFan]
	}
	return nil
}

// setShard replaces shard i in a cloned state, copying its group.
func (st *tableState) setShard(i uint32, m map[uint32][]*Entry) {
	ng := new(shardGroup)
	if g := st.groups[i/shardFan]; g != nil {
		*ng = *g
	}
	ng[i%shardFan] = m
	st.groups[i/shardFan] = ng
}

// bucket returns the entries whose first key is exactly k.
func (st *tableState) bucket(k uint32) []*Entry { return st.shard(shardOf(k))[k] }

// setBucket replaces (or, for an empty list, removes) bucket k in a cloned
// state, copying only the group and shard that hold it.
func (st *tableState) setBucket(k uint32, list []*Entry) {
	i := shardOf(k)
	old := st.shard(i)
	m := make(map[uint32][]*Entry, len(old)+1)
	for kk, v := range old {
		m[kk] = v
	}
	if len(list) == 0 {
		delete(m, k)
	} else {
		m[k] = list
	}
	if len(m) == 0 {
		m = nil
	}
	st.setShard(i, m)
}

// each calls fn for every installed entry: buckets in shard order, then the
// wildcard list.
func (st *tableState) each(fn func(*Entry)) {
	for _, g := range st.groups {
		if g == nil {
			continue
		}
		for _, m := range g {
			for _, b := range m {
				for _, e := range b {
					fn(e)
				}
			}
		}
	}
	for _, e := range st.wildcard {
		fn(e)
	}
}

// Table is a stage-resident ternary match-action table. Lookups (Apply,
// Lookup, and all read accessors) are lock-free against an atomically
// published snapshot; mutations serialize on a writer mutex, rebuild the
// snapshot copy-on-write, and publish it in one atomic store. Packets
// therefore always observe either the pre-update or the post-update entry
// set, never a torn mix.
type Table struct {
	Name     string
	Gress    Gress
	Stage    int
	capacity int

	keyFunc func(*PHV) []uint32
	nkeys   int

	// keyPHV, when non-nil, declares that this table's key vector is
	// exactly the listed PHV containers in order (SetPHVKeyFields); Apply
	// then reads them directly and keyFunc is unused.
	keyPHV []int

	mu      sync.Mutex // serializes writers; readers never take it
	nextID  EntryID
	actions map[string]actionDef // guarded by mu
	// byID locates installed entries for Delete without scanning the
	// index; guarded by mu.
	byID  map[EntryID]*Entry
	state atomic.Pointer[tableState]

	hits, misses atomic.Uint64
}

// SetPHVKeyFields declares that the table's key is exactly the named PHV
// scratch fields, in key order. Apply then reads those containers directly
// (pre-resolved integer indices) instead of calling the table's key
// function. The field count must match the table's key count, and every
// name must be defined in the layout. Call at provisioning time, before
// traffic flows.
func (t *Table) SetPHVKeyFields(layout *PHVLayout, names ...string) error {
	if len(names) != t.nkeys {
		return fmt.Errorf("rmt: table %s: %d key fields declared, want %d", t.Name, len(names), t.nkeys)
	}
	idx := make([]int, len(names))
	for i, n := range names {
		j, ok := layout.Index(n)
		if !ok {
			return fmt.Errorf("rmt: table %s: key field %q not defined in PHV layout", t.Name, n)
		}
		idx[i] = j
	}
	t.keyPHV = idx
	return nil
}

type actionDef struct {
	fn        ActionFunc
	vliwSlots int
}

// NewTable creates a table bound to a stage. keyFunc extracts nkeys 32-bit
// key values from the PHV per lookup; it may be nil for a table whose key
// fields are declared with SetPHVKeyFields before traffic flows.
func NewTable(name string, g Gress, stage, capacity, nkeys int, keyFunc func(*PHV) []uint32) *Table {
	t := &Table{
		Name:     name,
		Gress:    g,
		Stage:    stage,
		capacity: capacity,
		keyFunc:  keyFunc,
		nkeys:    nkeys,
		actions:  make(map[string]actionDef),
		byID:     make(map[EntryID]*Entry),
	}
	t.state.Store(&tableState{})
	return t
}

// RegisterAction binds an action implementation at provisioning time.
// vliwSlots is the number of VLIW instruction slots the action occupies, for
// resource accounting.
func (t *Table) RegisterAction(name string, vliwSlots int, fn ActionFunc) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.actions[name]; dup {
		return fmt.Errorf("rmt: table %s: action %q already registered", t.Name, name)
	}
	t.actions[name] = actionDef{fn: fn, vliwSlots: vliwSlots}
	return nil
}

// SetDefault configures the miss action; an empty name clears it.
func (t *Table) SetDefault(action string, params ...uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var fn ActionFunc
	if action != "" {
		def, ok := t.actions[action]
		if !ok {
			return fmt.Errorf("rmt: table %s: unknown default action %q", t.Name, action)
		}
		fn = def.fn
	}
	ns := t.state.Load().clone()
	ns.defaultName = action
	ns.defaultFn = fn
	ns.defaultParams = params
	t.state.Store(ns)
	return nil
}

// Insert installs an entry atomically. It fails when the table is full, the
// action is unknown, or the key count is wrong. The published copy costs the
// state header plus the touched bucket's group and shard, whatever the table
// holds.
func (t *Table) Insert(keys []TernaryKey, priority int, action string, params []uint32, owner string) (EntryID, error) {
	if err := fpInsert.Check(); err != nil {
		return 0, fmt.Errorf("rmt: table %s: insert: %w", t.Name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	if len(keys) != t.nkeys {
		return 0, fmt.Errorf("rmt: table %s: entry has %d keys, want %d", t.Name, len(keys), t.nkeys)
	}
	def, ok := t.actions[action]
	if !ok {
		return 0, fmt.Errorf("rmt: table %s: unknown action %q", t.Name, action)
	}
	if cur.count >= t.capacity {
		return 0, fmt.Errorf("rmt: table %s: full (%d entries)", t.Name, t.capacity)
	}
	t.nextID++
	e := &Entry{ID: t.nextID, Keys: keys, Priority: priority, Action: action, Params: params, Owner: owner, fn: def.fn}
	ns := cur.clone()
	if k := keys[0]; k.Mask == ^uint32(0) {
		ns.setBucket(k.Value, insertByPriority(copyEntries(cur.bucket(k.Value)), e))
	} else {
		ns.wildcard = insertByPriority(copyEntries(cur.wildcard), e)
	}
	ns.count++
	t.state.Store(ns)
	t.byID[e.ID] = e
	return e.ID, nil
}

// copyEntries returns a fresh slice with one spare slot, so insertByPriority
// never aliases the published snapshot's backing array.
func copyEntries(list []*Entry) []*Entry {
	out := make([]*Entry, len(list), len(list)+1)
	copy(out, list)
	return out
}

// insertByPriority places e after all existing entries of priority >=
// e.Priority (stable: earlier installs win ties), keeping the slice sorted
// by descending priority without re-sorting.
func insertByPriority(list []*Entry, e *Entry) []*Entry {
	idx := sort.Search(len(list), func(i int) bool { return list[i].Priority < e.Priority })
	list = append(list, nil)
	copy(list[idx+1:], list[idx:])
	list[idx] = e
	return list
}

// without returns a fresh copy of list minus the entry with the given ID.
func without(list []*Entry, id EntryID) []*Entry {
	out := make([]*Entry, 0, len(list))
	for _, e := range list {
		if e.ID != id {
			out = append(out, e)
		}
	}
	return out
}

// Delete removes an entry atomically, copying only its bucket's group and
// shard.
func (t *Table) Delete(id EntryID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if !ok {
		return fmt.Errorf("rmt: table %s: entry %d not found", t.Name, id)
	}
	cur := t.state.Load()
	ns := cur.clone()
	if k := e.Keys[0]; k.Mask == ^uint32(0) {
		ns.setBucket(k.Value, without(cur.bucket(k.Value), id))
	} else {
		ns.wildcard = without(cur.wildcard, id)
	}
	ns.count--
	t.state.Store(ns)
	delete(t.byID, id)
	return nil
}

// rewrite publishes a state in which every entry is replaced by f(e): nil
// drops the entry, a different *Entry replaces it. Only shards and lists
// holding a changed entry are copied. It returns how many entries changed;
// with none, nothing is published.
func (t *Table) rewrite(f func(*Entry) *Entry) int {
	cur := t.state.Load()
	n := 0
	edit := func(list []*Entry) ([]*Entry, bool) {
		var out []*Entry
		for i, e := range list {
			r := f(e)
			if r == e && out == nil {
				continue
			}
			if out == nil {
				out = append(make([]*Entry, 0, len(list)), list[:i]...)
			}
			if r != e {
				n++
				if r == nil {
					delete(t.byID, e.ID)
					continue
				}
				t.byID[r.ID] = r
			}
			out = append(out, r)
		}
		return out, out != nil
	}
	ns := cur.clone()
	for i := uint32(0); i < shardFan*shardFan; i++ {
		m := cur.shard(i)
		var nm map[uint32][]*Entry
		for k, b := range m {
			nb, changed := edit(b)
			if !changed {
				continue
			}
			if nm == nil {
				nm = make(map[uint32][]*Entry, len(m))
				for kk, v := range m {
					nm[kk] = v
				}
			}
			if len(nb) == 0 {
				delete(nm, k)
			} else {
				nm[k] = nb
			}
		}
		if nm != nil {
			if len(nm) == 0 {
				nm = nil
			}
			ns.setShard(i, nm)
		}
	}
	if nw, changed := edit(cur.wildcard); changed {
		ns.wildcard = nw
	}
	if n == 0 {
		return 0
	}
	ns.count = len(t.byID)
	t.state.Store(ns)
	return n
}

// DeleteOwned removes every entry installed under owner and returns how many
// were deleted.
func (t *Table) DeleteOwned(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rewrite(func(e *Entry) *Entry {
		if e.Owner == owner {
			return nil
		}
		return e
	})
}

// Reown transfers every entry installed under oldOwner to newOwner. Owner
// is read lock-free on the packet path (postcards, OwnerHits), so entries
// are replaced copy-on-write rather than mutated in place: each moved entry
// is a fresh Entry with the same ID, keys, priority, action, and parameters,
// seeded with the old entry's hit count at the moment of the swap. Hits
// landing on the retiring entry between that read and the snapshot
// publication are lost — the same bounded in-flight tolerance as any
// published-snapshot mutation. Returns the number of entries moved.
func (t *Table) Reown(oldOwner, newOwner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rewrite(func(e *Entry) *Entry {
		if e.Owner != oldOwner {
			return e
		}
		return &Entry{
			ID: e.ID, Keys: e.Keys, Priority: e.Priority,
			Action: e.Action, Params: e.Params, Owner: newOwner,
			fn: e.fn, hits: e.Hits(),
		}
	})
}

// Apply performs one match-action lookup for the packet. It returns whether
// an entry (or the default action) was executed. The match resolves against
// one immutable snapshot, so concurrent Insert/Delete can never expose a
// half-updated entry set; hit/miss counters are atomics.
func (t *Table) Apply(p *PHV) bool {
	st := t.state.Load()
	if st.count == 0 && st.defaultFn == nil {
		// Nothing can match and nothing runs on a miss: skip key
		// extraction (most provisioned RPBs are empty at any moment).
		t.misses.Add(1)
		return false
	}
	var keyVals []uint32
	if t.keyPHV != nil {
		keyVals = p.keyScratchRaw(len(t.keyPHV))
		// PHV.Set masks on write, so a raw container read equals Get.
		for i, idx := range t.keyPHV {
			keyVals[i] = p.vals[idx]
		}
	} else {
		keyVals = t.keyFunc(p)
	}
	e := st.lookup(keyVals)
	var fn ActionFunc
	var params []uint32
	switch {
	case e != nil:
		fn = e.fn
		params = e.Params
		atomic.AddUint64(&e.hits, 1)
		t.hits.Add(1)
	case st.defaultFn != nil:
		fn = st.defaultFn
		params = st.defaultParams
		t.misses.Add(1)
	default:
		t.misses.Add(1)
	}
	if p.trace != nil && (e != nil || st.defaultFn != nil) {
		// Postcard-sampled packet: record the executed hop. Pure misses (no
		// default) are skipped — no action ran, so there is no step to trace.
		h := PostcardHop{Gress: t.Gress, Stage: t.Stage, Table: t.Name}
		if e != nil {
			h.Action, h.Owner, h.Match = e.Action, e.Owner, true
		} else {
			h.Action = st.defaultName
		}
		p.trace.hop(h)
	}
	if fn == nil {
		return false
	}
	fn(p, params)
	return true
}

func (st *tableState) lookup(keyVals []uint32) *Entry {
	var best *Entry
	for _, e := range st.bucket(keyVals[0]) {
		if matchAll(e.Keys, keyVals) {
			best = e
			break // bucket sorted by priority
		}
	}
	for _, e := range st.wildcard {
		if best != nil && e.Priority <= best.Priority {
			break // wildcard sorted by priority
		}
		if matchAll(e.Keys, keyVals) {
			best = e
			break
		}
	}
	return best
}

func matchAll(keys []TernaryKey, vals []uint32) bool {
	for i, k := range keys {
		if !k.Matches(vals[i]) {
			return false
		}
	}
	return true
}

// Lookup returns the entry that would match the given key values, without
// executing its action. Used by tests and the consistency checker.
func (t *Table) Lookup(keyVals []uint32) *Entry {
	if len(keyVals) != t.nkeys {
		return nil
	}
	return t.state.Load().lookup(keyVals)
}

// Len returns the installed entry count.
func (t *Table) Len() int { return t.state.Load().count }

// Capacity returns the entry capacity.
func (t *Table) Capacity() int { return t.capacity }

// Free returns the remaining entry capacity.
func (t *Table) Free() int { return t.capacity - t.state.Load().count }

// Stats returns cumulative hit and miss counters.
func (t *Table) Stats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

// OwnerHits sums the direct counters of every entry a program owns — the
// control plane's per-program monitoring primitive.
func (t *Table) OwnerHits(owner string) uint64 {
	var total uint64
	t.state.Load().each(func(e *Entry) {
		if e.Owner == owner {
			total += e.Hits()
		}
	})
	return total
}

// AddHitsByOwner adds every entry's direct counter to into[entry owner], in
// one pass over the table — the per-program listing's form of OwnerHits.
func (t *Table) AddHitsByOwner(into map[string]uint64) {
	t.state.Load().each(func(e *Entry) { into[e.Owner] += e.Hits() })
}

// VLIWUsage sums the VLIW slots of all registered actions.
func (t *Table) VLIWUsage() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, a := range t.actions {
		n += a.vliwSlots
	}
	return n
}

// ActionCount returns the number of registered actions.
func (t *Table) ActionCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.actions)
}

// Entries returns a snapshot of installed entries (for tests/inspection).
func (t *Table) Entries() []*Entry {
	st := t.state.Load()
	out := make([]*Entry, 0, st.count)
	st.each(func(e *Entry) { out = append(out, e) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
