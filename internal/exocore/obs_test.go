package exocore

import (
	"bytes"
	"reflect"
	"testing"

	"exocore/internal/cores"
	"exocore/internal/energy"
	"exocore/internal/obs"
)

// TestObservationDoesNotPerturbResults is the "off path is free" gate:
// a fully-instrumented run (span + registry + region recording + cache)
// must produce exactly the same result as a bare one.
func TestObservationDoesNotPerturbResults(t *testing.T) {
	td := buildTDG(t, "cjpeg", 30000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	assign := Assignment{}
	for name, p := range plans {
		for l := range p.Regions {
			assign[l] = name
			break
		}
	}

	bare, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer("test")
	sp := tr.Begin("stage", "eval cjpeg")
	obsRun, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{
		Cache:         NewCache(td),
		Span:          sp,
		Reg:           obs.NewRegistry(),
		RecordRegions: true,
	})
	sp.End()
	if err != nil {
		t.Fatal(err)
	}

	if bare.Cycles != obsRun.Cycles {
		t.Errorf("cycles: bare %d, observed %d", bare.Cycles, obsRun.Cycles)
	}
	if bare.OffloadCycles != obsRun.OffloadCycles {
		t.Errorf("offload cycles: bare %d, observed %d", bare.OffloadCycles, obsRun.OffloadCycles)
	}
	if bare.Counts != obsRun.Counts {
		t.Errorf("energy counts: bare %+v, observed %+v", bare.Counts, obsRun.Counts)
	}
	if !reflect.DeepEqual(bare.Models, obsRun.Models) {
		t.Errorf("model stats: bare %+v, observed %+v", bare.Models, obsRun.Models)
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Errorf("emitted trace invalid: %v", err)
	}

	// The flight-recorder shape is just as free: a small ring that must
	// wrap during the run still yields identical results and a valid
	// (windowed) trace.
	ring := obs.NewRingTracer("test", 2)
	rsp := ring.Begin("stage", "eval cjpeg")
	ringRun, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{
		Cache:         NewCache(td),
		Span:          rsp,
		Reg:           obs.NewRegistry(),
		RecordRegions: true,
	})
	rsp.End()
	if err != nil {
		t.Fatal(err)
	}
	if bare.Cycles != ringRun.Cycles || bare.Counts != ringRun.Counts {
		t.Errorf("ring tracer perturbed the run: bare %d cycles, ring %d", bare.Cycles, ringRun.Cycles)
	}
	if !reflect.DeepEqual(bare.Models, ringRun.Models) {
		t.Errorf("ring tracer perturbed model stats")
	}
	if ring.Dropped() == 0 {
		t.Errorf("cap-2 ring never wrapped (retained %d): test not exercising eviction", ring.Len())
	}
	buf.Reset()
	if err := ring.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Errorf("ring trace after wraparound invalid: %v", err)
	}
}

// TestRegionAttributionSumsToTotals checks the per-region table is a
// partition of the run: dynamic instructions, cycles and energy events
// each sum back to the whole-run figures.
func TestRegionAttributionSumsToTotals(t *testing.T) {
	td := buildTDG(t, "mm", 30000)
	bsas := allBSAs()
	plans := analyzeAll(td, bsas)
	assign := Assignment{}
	for name, p := range plans {
		for l := range p.Regions {
			assign[l] = name
			break
		}
	}

	res, err := Run(td, cores.OOO2, bsas, plans, assign, RunOpts{RecordRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) < 2 {
		t.Fatalf("regions = %d, want the general-core row plus accelerated rows", len(res.Regions))
	}

	var dyn, cycles, classes int64
	var counts energy.Counts
	for i := range res.Regions {
		rs := &res.Regions[i]
		dyn += rs.Dyn
		cycles += rs.Cycles
		counts.AddCounts(&rs.Counts)
		for _, v := range rs.Classes {
			classes += v
		}
	}
	if dyn != int64(td.Trace.Len()) {
		t.Errorf("region dyn sums to %d, trace has %d", dyn, td.Trace.Len())
	}
	if cycles != res.Cycles {
		t.Errorf("region cycles sum to %d, run took %d", cycles, res.Cycles)
	}
	if counts != res.Counts {
		t.Errorf("region energy counts do not sum to run counts:\nregions: %v\nrun:     %v", counts, res.Counts)
	}
	if classes == 0 {
		t.Error("no critical-path class latency attributed to any region")
	}

	// Every accelerated row reflects the assignment we made (nested
	// assigned loops may never execute — outermost wins — so iterate the
	// rows, not the assignment), and Region() finds each row.
	accelerated := 0
	for i := range res.Regions {
		rs := &res.Regions[i]
		if rs.BSA != "" {
			accelerated++
			if assign[rs.LoopID] != rs.BSA {
				t.Errorf("region (%d, %s) not in assignment %v", rs.LoopID, rs.BSA, assign)
			}
		}
		if got := res.Region(rs.LoopID, rs.BSA); got != rs {
			t.Errorf("Region(%d, %q) = %p, want row %d (%p)", rs.LoopID, rs.BSA, got, i, rs)
		}
	}
	if accelerated == 0 {
		t.Error("no accelerated region rows")
	}
	if rs := res.Region(-1, ""); rs == nil {
		t.Error("no general-core (-1) region row")
	}
}
