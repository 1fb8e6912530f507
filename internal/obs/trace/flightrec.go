package trace

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured flight-recorder entry. Fields are plain values
// (string headers copy without allocating) so recording stays
// allocation-free; callers should pass strings they already hold rather
// than formatting new ones on the hot path.
type Event struct {
	At     int64         // unix nanoseconds; stamped by Record when zero
	Kind   string        // e.g. "deploy", "revoke", "cutover", "reconcile", "journal.sync", "health", "boot"
	Name   string        // subject: program, member, unit
	Detail string        // short free-form qualifier
	Dur    time.Duration // operation duration, if timed
	Err    string        // error text, if the operation failed
	Trace  TraceID       // correlating trace, if the operation was traced
}

// Common event kinds recorded across the control plane.
const (
	EvDeploy      = "deploy"
	EvRevoke      = "revoke"
	EvCutover     = "cutover"
	EvUpgrade     = "upgrade"
	EvReconcile   = "reconcile"
	EvJournalSync = "journal.sync"
	EvHealth      = "health"
	EvBoot        = "boot"
	EvMemWrite    = "memwrite"
)

// FlightRecorder is a fixed-size ring of recent control-plane events with
// zero steady-state allocations: slots are preallocated, writers claim a
// slot with an atomic counter, and a per-slot mutex keeps dump-time readers
// from observing torn writes. A writer never blocks: when the slot's lock is
// held (another writer lapped the ring into it, or a dump is copying it),
// the writer drops its event and counts the drop.
type FlightRecorder struct {
	slots   []eslot
	head    atomic.Uint64
	dropped atomic.Uint64
}

type eslot struct {
	mu sync.Mutex
	ev Event
}

// NewFlightRecorder returns a recorder holding the last n events
// (default 512).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 512
	}
	return &FlightRecorder{slots: make([]eslot, n)}
}

// Record appends ev to the ring. Safe for concurrent use; never blocks and
// never allocates. A nil recorder discards the event.
func (r *FlightRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.At == 0 {
		ev.At = time.Now().UnixNano()
	}
	i := r.head.Add(1) - 1
	s := &r.slots[i%uint64(len(r.slots))]
	if !s.mu.TryLock() {
		r.dropped.Add(1)
		return
	}
	s.ev = ev
	s.mu.Unlock()
}

// Dropped reports how many events were lost to slot contention.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Events returns the buffered events, oldest first.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	n := uint64(len(r.slots))
	head := r.head.Load()
	start := uint64(0)
	if head > n {
		start = head - n
	}
	out := make([]Event, 0, head-start)
	for i := start; i < head; i++ {
		s := &r.slots[i%n]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.At != 0 {
			out = append(out, ev)
		}
	}
	return out
}

// eventJSON is the dump form of an Event.
type eventJSON struct {
	At     string `json:"at"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Detail string `json:"detail,omitempty"`
	DurUs  int64  `json:"dur_us,omitempty"`
	Err    string `json:"err,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

func (ev Event) toJSON() eventJSON {
	j := eventJSON{
		At:     time.Unix(0, ev.At).UTC().Format(time.RFC3339Nano),
		Kind:   ev.Kind,
		Name:   ev.Name,
		Detail: ev.Detail,
		DurUs:  ev.Dur.Microseconds(),
		Err:    ev.Err,
	}
	if !ev.Trace.IsZero() {
		j.Trace = ev.Trace.String()
	}
	return j
}

// WriteJSON dumps the ring as one JSON object. reason tags why the dump
// happened ("sigquit", "boot", "verb").
func (r *FlightRecorder) WriteJSON(w io.Writer, reason string) error {
	evs := r.Events()
	out := struct {
		Reason  string      `json:"reason"`
		Now     string      `json:"now"`
		Dropped uint64      `json:"dropped,omitempty"`
		Events  []eventJSON `json:"events"`
	}{
		Reason:  reason,
		Now:     time.Now().UTC().Format(time.RFC3339Nano),
		Dropped: r.Dropped(),
		Events:  make([]eventJSON, 0, len(evs)),
	}
	for _, ev := range evs {
		out.Events = append(out.Events, ev.toJSON())
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// String renders one event on one line for logs:
// "12:03:04.123 deploy name=hh detail=unit:3 dur=1.2ms".
func (ev Event) String() string {
	out := time.Unix(0, ev.At).UTC().Format("15:04:05.000") + " " + ev.Kind
	if ev.Name != "" {
		out += " name=" + ev.Name
	}
	if ev.Detail != "" {
		out += " detail=" + ev.Detail
	}
	if ev.Dur != 0 {
		out += " dur=" + ev.Dur.String()
	}
	if ev.Err != "" {
		out += " err=" + strconv.Quote(ev.Err)
	}
	if !ev.Trace.IsZero() {
		out += " trace=" + ev.Trace.String()
	}
	return out
}
