package fusion

import (
	"testing"

	"exocore/internal/cores"
	"exocore/internal/isa"
	"exocore/internal/testutil"
)

func TestAnalyzeFindsFMA(t *testing.T) {
	td := testutil.TDGFor(t, "conv", 20000) // unrolled taps: 6 fmul→fadd chains
	plan := Analyze(td, StandardRules)
	if plan.PerRule["fma"] == 0 {
		t.Errorf("no fma pairs found in conv: %s", plan.Summary())
	}
	for si, pair := range plan.Survivor {
		if pair.Rule.Style == ProducerAbsorbs && si != pair.ProducerSI {
			t.Error("producer-absorbing pair keyed on wrong side")
		}
		if pair.Rule.Style == ConsumerAbsorbs && si != pair.ConsumerSI {
			t.Error("consumer-absorbing pair keyed on wrong side")
		}
	}
}

func TestAnalyzeFindsCompareBranch(t *testing.T) {
	// vpr: slt+beq pairs in the min/max updates.
	td := testutil.TDGFor(t, "vpr", 20000)
	plan := Analyze(td, StandardRules)
	if plan.PerRule["cmp-beq"] == 0 && plan.PerRule["cmpi-beq"] == 0 &&
		plan.PerRule["cmp-bne"] == 0 {
		t.Errorf("no compare-branch fusion in vpr: %s", plan.Summary())
	}
}

func TestNoDoubleClaim(t *testing.T) {
	for _, bench := range []string{"conv", "vpr", "mm", "cjpeg"} {
		td := testutil.TDGFor(t, bench, 20000)
		plan := Analyze(td, StandardRules)
		for si := range plan.Survivor {
			if plan.Elided[si] {
				t.Errorf("%s: SI %d both survives and is elided", bench, si)
			}
		}
	}
}

func TestEvaluateSpeedsUp(t *testing.T) {
	for _, bench := range []string{"conv", "vpr"} {
		td := testutil.TDGFor(t, bench, 20000)
		plan := Analyze(td, StandardRules)
		if len(plan.Survivor) == 0 {
			t.Fatalf("%s: nothing fused", bench)
		}
		base, baseCounts := cores.Evaluate(cores.OOO2, td.Trace)
		fused, fusedCounts := Evaluate(td, cores.OOO2, plan)
		t.Logf("%s: %s -> %.3fx", bench, plan.Summary(), float64(base)/float64(fused))
		if fused > base {
			t.Errorf("%s: fusion slowed execution: %d vs %d", bench, fused, base)
		}
		if fusedCounts.Total() >= baseCounts.Total() {
			t.Errorf("%s: fusion did not reduce event counts", bench)
		}
	}
}

func TestCustomRule(t *testing.T) {
	// A user-defined rule: fold shli into a following load's address —
	// verify the DSL accepts rules beyond the standard set.
	td := testutil.TDGFor(t, "spmv", 20000)
	rules := []Rule{{
		Name: "shift-ld", Producer: isa.ShlI, Consumer: isa.Add,
		Style: ConsumerAbsorbs, FusedOp: isa.Add,
	}}
	plan := Analyze(td, rules)
	if plan.PerRule["shift-ld"] == 0 {
		t.Skipf("pattern absent: %s", plan.Summary())
	}
	base, _ := cores.Evaluate(cores.OOO2, td.Trace)
	fused, _ := Evaluate(td, cores.OOO2, plan)
	if fused > base {
		t.Errorf("custom rule slowed execution: %d vs %d", fused, base)
	}
}

func TestSummaryListsRulesInNameOrder(t *testing.T) {
	plan := &Plan{
		Survivor: map[int]*Pair{1: {}, 2: {}, 3: {}},
		PerRule:  map[string]int{"mac": 1, "cmpi-bne": 1, "fma": 1},
	}
	// Map iteration order varies between calls; repeat to catch it.
	for i := 0; i < 10; i++ {
		if got, want := plan.Summary(), "3 fused pairs: cmpi-bne=1 fma=1 mac=1"; got != want {
			t.Fatalf("Summary = %q, want %q", got, want)
		}
	}
}
