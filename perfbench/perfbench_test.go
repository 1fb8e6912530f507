package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"p4runpro/internal/rmt"
)

func testStack(t *testing.T, name string) (*stack, *runner) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	s, err := newStack(w, 3, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s, &runner{s: s, rec: newRecorder(), chk: &checker{}}
}

// repState is what must come out identical from two consecutive
// repetitions of one seed.
type repState struct {
	verdicts [rmt.VerdictNextHop + 1]uint64
	lookups  uint64
	words    uint64 // sum of every hh SALU word after the replay
}

func TestConsecutiveRepetitionsMatch(t *testing.T) {
	s, r := testStack(t, "ctl-occupied")
	rep := func() repState {
		b, a, _, _, err := r.replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		var st repState
		for v := range st.verdicts {
			st.verdicts[v] = a.m[0].Verdicts[v] - b.m[0].Verdicts[v]
		}
		for i := range a.m[0].StageLookups {
			st.lookups += a.m[0].StageLookups[i] - b.m[0].StageLookups[i]
		}
		for _, mem := range []string{"mem_cms_row1", "mem_cms_row2", "mem_bf_row1", "mem_bf_row2"} {
			vals, err := s.ct.ReadMemoryRange(mixProgram[clsHH], mem, 0, mixMemWords)
			if err != nil {
				t.Fatal(err)
			}
			st.words += sumWords(vals)
		}
		return st
	}
	first := rep()
	r.injectSample() // disturb the state the next repetition must reset
	if second := rep(); second != first {
		t.Fatalf("repetitions differ:\nfirst  %+v\nsecond %+v", first, second)
	}
	if first.verdicts[rmt.VerdictToCPU] == 0 {
		t.Fatal("no hh report: the heavy flows never crossed the threshold")
	}
}

func TestCheckerCatchesWrongExpectations(t *testing.T) {
	s, r := testStack(t, "ctl-occupied")
	b, a, _, _, err := r.replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.wt.tr.Events)
	r.checkMixReplay(b, a, n)
	s.wt.restore()
	r.injectSample()
	if _, failed, notes := r.chk.totals(); failed != 0 {
		t.Fatalf("correct run reported %d failures: %v", failed, notes)
	}

	wrong := []struct {
		name  string
		spoil func()
		check func()
	}{
		{"hh packet count", func() { s.wt.counts[clsHH]++ }, func() { r.checkMixReplay(b, a, n) }},
		{"cache value", func() { s.cacheVals[0] ^= 1 }, r.injectSample},
		{"lb pool", func() { s.dips = map[uint32]bool{} }, r.injectSample},
	}
	for _, c := range wrong {
		r.chk = &checker{}
		c.spoil()
		s.wt.restore()
		c.check()
		if _, failed, _ := r.chk.totals(); failed == 0 {
			t.Errorf("%s: a wrong expectation passed the checks", c.name)
		}
	}
}

func TestFabricAndFleetChecksPass(t *testing.T) {
	_, r := testStack(t, "fabric-fleet")
	r.packetRep()
	r.controlCycle(0)
	r.fleetCycle(true)
	if _, failed, notes := r.chk.totals(); failed != 0 {
		t.Fatalf("%d failures: %v", failed, notes)
	}
	if len(r.rec.get("reconcile_ms")) != 1 {
		t.Fatal("first fleet cycle did not time a repair")
	}
}

// TestRunReportsEveryMetric runs the single-switch and the fabric
// workloads end to end, untraced and traced.
func TestRunReportsEveryMetric(t *testing.T) {
	for _, name := range []string{"ctl-occupied", "fabric-fleet"} {
		w, _ := findWorkload(name)
		for _, traced := range []bool{false, true} {
			res, err := run(w, 5, 1, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: correct=%v, %d metrics, want %d", name, traced, res.Correct, len(res.Metrics), len(want))
			}
			if !traced {
				for m, v := range res.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: %s = %v, want a positive measurement", name, m, v.Value)
					}
				}
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the metric tables, the workload
// table and BENCHMARK.json in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %s (%q) in BENCHMARK.json, %s (%q) in the program", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: json %d/%d, program %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if e := endToEnd[i]; m.Name != e.name || m.Unit != e.unit || m.Better != e.better || m.Bound != e.bound {
			t.Errorf("end-to-end %d: json %+v, program %+v", i, m, e)
		}
	}
	for i, m := range bj.PerLayer {
		if e := perLayer[i]; m.Name != e.name || m.Unit != e.unit || m.Better != e.better {
			t.Errorf("per-layer %d: json %+v, program %+v", i, m, e)
		}
	}
}

// TestOnlyKeptAPIs keeps the benchmark off the surfaces the ROADMAP plans
// to delete, so deleting them never needs a benchmark edit.
func TestOnlyKeptAPIs(t *testing.T) {
	banned := []string{"SetCompile", "CompiledPlan", "PlanEpoch", "ClearPlan", "p4runpro_plan_"}
	bannedImports := map[string]bool{"p4runpro": true, "p4runpro/internal/rmt/compile": true, "p4runpro/internal/chain": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	fleetType := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fleet" {
				t.Errorf("%s: type-asserts fleet.%s", fset.Position(e.Pos()), sel.Sel.Name)
			}
		}
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); bannedImports[p] {
				t.Errorf("%s imports %s", name, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				for _, b := range banned {
					if x.Name == b {
						t.Errorf("%s: uses %s", fset.Position(x.Pos()), b)
					}
				}
			case *ast.BasicLit:
				for _, b := range banned {
					if strings.Contains(x.Value, b) {
						t.Errorf("%s: names %s", fset.Position(x.Pos()), b)
					}
				}
			case *ast.TypeAssertExpr:
				fleetType(x.Type)
			case *ast.TypeSwitchStmt:
				for _, c := range x.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						fleetType(e)
					}
				}
			}
			return true
		})
	}
}
