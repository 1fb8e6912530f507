package main

import (
	"fmt"
	"math"
	"sort"
)

// series is one metric's samples in a run.
type series []float64

func (s *series) add(v float64) { *s = append(*s, v) }

// q returns the p-quantile by nearest rank (0 for an empty series).
func (s series) q(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s series) median() float64 { return s.q(0.5) }

// tailOK reports whether the p-quantile has at least ten samples beyond
// it, the rule for naming a tail percentile.
func (s series) tailOK(p float64) bool { return len(s)-int(math.Ceil(p*float64(len(s)))) >= 10 }

// tail returns the highest of p99, p95, p90 and p75 that has at least ten
// samples beyond it.
func (s series) tail() (float64, bool) {
	for _, p := range []float64{0.99, 0.95, 0.9, 0.75} {
		if s.tailOK(p) {
			return p, true
		}
	}
	return 0, false
}

// checker counts attempted operations and failed ones. An operation is a
// control-plane call, a replayed or injected packet, or a correctness
// check; a refusal, a wrong verdict and a failed check each count as a
// failure.
type checker struct {
	attempted int64
	failed    int64
	notes     []string
}

// ops counts n operations whose outcome a later check covers.
func (c *checker) ops(n int) {
	c.attempted += int64(n)
}

// op counts one operation that failed when err is non-nil.
func (c *checker) op(err error, what string) bool {
	if err != nil {
		c.record(1, 1, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	c.ops(1)
	return true
}

// expect counts one check.
func (c *checker) expect(ok bool, format string, args ...any) bool {
	if !ok {
		c.record(1, 1, fmt.Sprintf(format, args...))
		return false
	}
	c.ops(1)
	return true
}

// count compares a counted quantity with its expected value; every unit
// of difference is a failed operation (a packet with the wrong verdict).
func (c *checker) count(got, want uint64, what string) bool {
	if got == want {
		c.ops(1)
		return true
	}
	diff := int64(got) - int64(want)
	if diff < 0 {
		diff = -diff
	}
	c.record(1, diff, fmt.Sprintf("%s: got %d, want %d", what, got, want))
	return false
}

func (c *checker) record(attempted, failed int64, note string) {
	c.attempted += attempted
	c.failed += failed
	if len(c.notes) < 20 {
		c.notes = append(c.notes, note)
	}
}

func (c *checker) totals() (attempted, failed int64, notes []string) {
	return c.attempted, c.failed, append([]string(nil), c.notes...)
}
