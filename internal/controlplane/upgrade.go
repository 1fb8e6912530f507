// Versioned program upgrades at the controller: journaled wrappers around
// the internal/upgrade session state machine. Each transition — prepare,
// cutover, commit, abort — is one write-ahead journal record, so a crash
// mid-upgrade recovers to a consistent version: an upgrade whose commit
// record never made it to disk replays back to the prepared (or cut-over)
// state, and one whose commit landed replays all the way to v2.
package controlplane

import (
	"context"
	"fmt"
	"sort"
	"time"

	"p4runpro/internal/faults"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/upgrade"
)

// fpUpgradeCommitJournal guards the durable commit of the upgrade record —
// the point where a crash decides whether recovery lands on v1 or v2. The
// chaos suite arms it to prove a failed commit leaves the switch cut over
// but uncommitted, and recovery lands on a single consistent version.
var fpUpgradeCommitJournal = faults.Register("upgrade.journal.commit")

// upgradeBusy rejects destructive operations on a program whose upgrade is
// still in flight; the session must commit or abort first.
func (ct *Controller) upgradeBusy(name string) error {
	ct.upMu.Lock()
	defer ct.upMu.Unlock()
	if s, ok := ct.upgrades[name]; ok {
		if st := s.State(); st != upgrade.StateCommitted && st != upgrade.StateAborted {
			return fmt.Errorf("controlplane: %q has an upgrade in flight (%s); commit or abort it first", name, st)
		}
	}
	return nil
}

// upgradeSession returns the program's upgrade session (active or terminal).
func (ct *Controller) upgradeSession(name string) (*upgrade.Session, error) {
	ct.upMu.Lock()
	defer ct.upMu.Unlock()
	s, ok := ct.upgrades[name]
	if !ok {
		return nil, fmt.Errorf("controlplane: no upgrade session for %q", name)
	}
	return s, nil
}

// UpgradePrepare links v2 of a live program alongside v1, migrates its
// SALU state, and installs the version gate pinned to v1 (see
// internal/upgrade). Journaled write-ahead like every mutating operation.
func (ct *Controller) UpgradePrepare(name, v2src string) (upgrade.Status, error) {
	return ct.UpgradePrepareCtx(context.Background(), name, v2src)
}

// UpgradePrepareCtx is UpgradePrepare under the trace carried by ctx.
func (ct *Controller) UpgradePrepareCtx(ctx context.Context, name, v2src string) (upgrade.Status, error) {
	_, sp, owned := ct.opSpan(ctx, "upgrade.prepare")
	if owned {
		defer sp.End()
	}
	start := time.Now()
	st, err := ct.upgradeTraced(sp,
		journal.Record{Op: journal.OpUpgradePrepare, Name: name, Source: v2src},
		func() { ct.jrn.trackUpgradePrepare(name, v2src) },
		func() (upgrade.Status, error) { return ct.applyUpgradePrepare(name, v2src) })
	ct.flightOp(trace.EvUpgrade, name, "prepare", start, err, sp)
	return st, err
}

// upgradeTraced runs one upgrade transition with lock.wait, journal.commit,
// and apply attribution on sp — the shared journaled shape of all four
// transitions. track (nil to skip) runs after a successful journaled apply.
func (ct *Controller) upgradeTraced(sp *trace.Span, rec journal.Record, track func(), apply func() (upgrade.Status, error)) (upgrade.Status, error) {
	if ct.jrn == nil {
		return ct.applyUpgradeSpanned(sp, apply)
	}
	lstart := time.Now()
	ct.jrn.mu.Lock()
	sp.ChildAt("lock.wait", lstart, time.Since(lstart))
	defer ct.jrn.mu.Unlock()
	jstart := time.Now()
	err := ct.jrn.append(rec)
	sp.ChildAt("journal.commit", jstart, time.Since(jstart))
	if err != nil {
		return upgrade.Status{}, err
	}
	st, err := ct.applyUpgradeSpanned(sp, apply)
	if err == nil && track != nil {
		track()
	}
	return st, err
}

func (ct *Controller) applyUpgradeSpanned(sp *trace.Span, apply func() (upgrade.Status, error)) (upgrade.Status, error) {
	astart := time.Now()
	st, err := apply()
	var tags []trace.Tag
	if err != nil {
		tags = append(tags, trace.Tag{Key: "err", Value: err.Error()})
	}
	sp.ChildAt("apply", astart, time.Since(astart), tags...)
	return st, err
}

func (ct *Controller) applyUpgradePrepare(name, v2src string) (upgrade.Status, error) {
	ct.upMu.Lock()
	if s, ok := ct.upgrades[name]; ok {
		if st := s.State(); st != upgrade.StateCommitted && st != upgrade.StateAborted {
			ct.upMu.Unlock()
			return upgrade.Status{}, fmt.Errorf("controlplane: upgrade of %q already in flight (%s)", name, st)
		}
	}
	ct.upMu.Unlock()
	s, err := upgrade.Prepare(ct.Compiler, ct.Plane, name, v2src)
	if err != nil {
		return upgrade.Status{}, err
	}
	ct.cUpgradeStarted.Inc()
	ct.upMu.Lock()
	ct.upgrades[name] = s
	ct.upMu.Unlock()
	return s.Status(), nil
}

// UpgradeCutover publishes the epoch assigning new packets to the given
// version (2 to cut over, 1 to roll the traffic back). The flip is one
// atomic pointer store — no table entry moves.
func (ct *Controller) UpgradeCutover(name string, version int) (upgrade.Status, error) {
	return ct.UpgradeCutoverCtx(context.Background(), name, version)
}

// UpgradeCutoverCtx is UpgradeCutover under the trace carried by ctx.
func (ct *Controller) UpgradeCutoverCtx(ctx context.Context, name string, version int) (upgrade.Status, error) {
	_, sp, owned := ct.opSpan(ctx, "upgrade.cutover")
	if owned {
		defer sp.End()
	}
	start := time.Now()
	detail := "to v2"
	if version == 1 {
		detail = "to v1"
	}
	st, err := ct.upgradeTraced(sp,
		journal.Record{Op: journal.OpUpgradeCutover, Name: name, Value: uint32(version)},
		nil,
		func() (upgrade.Status, error) { return ct.applyUpgradeCutover(name, version) })
	ct.flightOp(trace.EvCutover, name, detail, start, err, sp)
	return st, err
}

func (ct *Controller) applyUpgradeCutover(name string, version int) (upgrade.Status, error) {
	s, err := ct.upgradeSession(name)
	if err != nil {
		return upgrade.Status{}, err
	}
	t0 := time.Now()
	if err := s.Cutover(version); err != nil {
		return upgrade.Status{}, err
	}
	ct.mUpgradeCutoverNs.ObserveDuration(time.Since(t0))
	return s.Status(), nil
}

// UpgradeCommit finishes the upgrade: v2 takes over the operator-visible
// name and v1 is revoked. The journal record is the durability pivot — once
// it is on disk, recovery replays to v2 even if the process dies mid-apply.
func (ct *Controller) UpgradeCommit(name string) (upgrade.Status, error) {
	return ct.UpgradeCommitCtx(context.Background(), name)
}

// UpgradeCommitCtx is UpgradeCommit under the trace carried by ctx.
func (ct *Controller) UpgradeCommitCtx(ctx context.Context, name string) (upgrade.Status, error) {
	if err := fpUpgradeCommitJournal.Check(); err != nil {
		return upgrade.Status{}, fmt.Errorf("controlplane: upgrade commit journal: %w", err)
	}
	_, sp, owned := ct.opSpan(ctx, "upgrade.commit")
	if owned {
		defer sp.End()
	}
	start := time.Now()
	st, err := ct.upgradeTraced(sp,
		journal.Record{Op: journal.OpUpgradeCommit, Name: name},
		func() { ct.jrn.trackUpgradeCommit(name) },
		func() (upgrade.Status, error) { return ct.applyUpgradeCommit(name) })
	ct.flightOp(trace.EvUpgrade, name, "commit", start, err, sp)
	return st, err
}

func (ct *Controller) applyUpgradeCommit(name string) (upgrade.Status, error) {
	s, err := ct.upgradeSession(name)
	if err != nil {
		return upgrade.Status{}, err
	}
	err = s.Commit()
	if err != nil {
		return upgrade.Status{}, err
	}
	ct.cUpgradeCommitted.Inc()
	return s.Status(), nil
}

// UpgradeAbort rolls the upgrade back to pure v1 and erases v2.
func (ct *Controller) UpgradeAbort(name string) (upgrade.Status, error) {
	return ct.UpgradeAbortCtx(context.Background(), name)
}

// UpgradeAbortCtx is UpgradeAbort under the trace carried by ctx.
func (ct *Controller) UpgradeAbortCtx(ctx context.Context, name string) (upgrade.Status, error) {
	_, sp, owned := ct.opSpan(ctx, "upgrade.abort")
	if owned {
		defer sp.End()
	}
	start := time.Now()
	st, err := ct.upgradeTraced(sp,
		journal.Record{Op: journal.OpUpgradeAbort, Name: name},
		func() { ct.jrn.trackUpgradeAbort(name) },
		func() (upgrade.Status, error) { return ct.applyUpgradeAbort(name) })
	ct.flightOp(trace.EvUpgrade, name, "abort", start, err, sp)
	return st, err
}

func (ct *Controller) applyUpgradeAbort(name string) (upgrade.Status, error) {
	s, err := ct.upgradeSession(name)
	if err != nil {
		return upgrade.Status{}, err
	}
	err = s.Abort()
	if err != nil {
		return upgrade.Status{}, err
	}
	ct.cUpgradeRolledBack.Inc()
	return s.Status(), nil
}

// UpgradeStatus snapshots a program's upgrade session (active or the most
// recent terminal one). Read-only: nothing is journaled.
func (ct *Controller) UpgradeStatus(name string) (upgrade.Status, error) {
	s, err := ct.upgradeSession(name)
	if err != nil {
		return upgrade.Status{}, err
	}
	return s.Status(), nil
}

// Upgrades lists every upgrade session, sorted by program name.
func (ct *Controller) Upgrades() []upgrade.Status {
	ct.upMu.Lock()
	names := make([]string, 0, len(ct.upgrades))
	for n := range ct.upgrades {
		names = append(names, n)
	}
	sessions := make([]*upgrade.Session, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		sessions = append(sessions, ct.upgrades[n])
	}
	ct.upMu.Unlock()
	out := make([]upgrade.Status, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.Status())
	}
	return out
}
