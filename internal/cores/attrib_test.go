package cores_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"exocore/internal/bsa"
	"exocore/internal/cores"
	"exocore/internal/dg"
	"exocore/internal/energy"
	"exocore/internal/exocore"
	"exocore/internal/tdg"
	"exocore/internal/testutil"
)

// attributedCore is what the differential test needs of a core beyond
// the transforms' view of it.
type attributedCore interface {
	tdg.Core
	EndTime() int64
	WalkCriticalPath(from dg.NodeID, fn func(dyn int32, class dg.EdgeClass, lat int64))
}

// region keys the per-region class histograms.
type region struct {
	loop int
	bsa  string
}

// step is one critical-path step.
type step struct {
	dyn   int32
	class dg.EdgeClass
	lat   int64
}

// attribution is everything the differential test compares.
type attribution struct {
	end     int64
	classes map[region][dg.NumEdgeClasses]int64
	path    []step
}

// attribute drives core over the whole trace under an assignment — core
// segments through the decoded drive loop, assigned ones through their
// BSA's transform, all on one µDG — then walks the critical path from the
// latest of the core's last commit and the transforms' end nodes and bins
// it by region. Zero-latency steps into synthetic events are left out of
// the path: the node form joins barriers through extra nodes and the
// time-direct core enters its log through anchors, and neither carries a
// cycle or an instruction.
func attribute(td *tdg.TDG, g *dg.Graph, core attributedCore, counts *energy.Counts,
	bsas map[string]tdg.BSA, plans map[string]*tdg.Plan, assign exocore.Assignment) attribution {

	segs := exocore.Segmentize(td, assign)
	resident := map[int]bool{}
	from := dg.None
	for _, seg := range segs {
		if seg.LoopID < 0 {
			core.ExecTrace(td.Decoded(), td.Trace.Insts[seg.Start:seg.End], seg.Start)
			continue
		}
		name := assign[seg.LoopID]
		ctx := tdg.Ctx{TDG: td, G: g, GPP: core, Counts: counts, ConfigResident: resident[seg.LoopID]}
		resident[seg.LoopID] = true
		if end := bsas[name].TransformRegion(&ctx, plans[name].Region(seg.LoopID), seg.Start, seg.End); end != dg.None &&
			(from == dg.None || g.Time(end) > g.Time(from)) {
			from = end
		}
	}
	if c := core.LastCommit(); from == dg.None || g.Time(c) >= g.Time(from) {
		from = c
	}
	a := attribution{end: g.Time(from), classes: map[region][dg.NumEdgeClasses]int64{}}
	cur := len(segs) - 1
	core.WalkCriticalPath(from, func(dyn int32, class dg.EdgeClass, lat int64) {
		if dyn >= 0 {
			cur = sort.Search(len(segs), func(i int) bool { return segs[i].End > int(dyn) })
		}
		if dyn >= 0 || lat != 0 {
			a.path = append(a.path, step{dyn, class, lat})
		}
		k := region{segs[cur].LoopID, assign[segs[cur].LoopID]}
		h := a.classes[k]
		h[class] += lat
		a.classes[k] = h
	})
	return a
}

// TestAttributionMatchesNodeForm is the differential test of the
// time-direct core's critical-path attribution: on one benchmark per
// workload family, every core, the baseline and random assignments over
// every registered BSA, it must report the node-form reference's per-µop
// stage times (recomputed from its log), critical path step for step,
// per-region class histograms, end time and energy.
func TestAttributionMatchesNodeForm(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	reg := bsa.Default()
	for _, bench := range []string{"cjpeg", "mm", "fft", "milc", "gzip", "conv", "bfs", "tpch1"} {
		td := testutil.TDGFor(t, bench, 8000)
		bsas := reg.New()
		plans := make(map[string]*tdg.Plan, len(bsas))
		for name, b := range bsas {
			plans[name] = b.Analyze(td)
		}
		cands := map[int][]string{}
		var loops []int
		for l := range td.Nest.Loops {
			for _, n := range reg.Names() {
				if plans[n].Region(l) != nil {
					cands[l] = append(cands[l], n)
				}
			}
			if len(cands[l]) > 0 {
				loops = append(loops, l)
			}
		}
		for _, cfg := range cores.Configs {
			assigns := []exocore.Assignment{nil}
			for trial := 0; trial < 4; trial++ {
				a := exocore.Assignment{}
				for _, l := range loops {
					if rng.Intn(2) == 0 {
						a[l] = cands[l][rng.Intn(len(cands[l]))]
					}
				}
				assigns = append(assigns, a)
			}
			for _, a := range assigns {
				var cr, cg energy.Counts
				gr, gg := dg.NewGraph(), dg.NewGraph()
				ref := cores.NewRefGPP(cfg, gr, &cr)
				gpp := cores.NewGPP(cfg, gg, &cg)
				want := attribute(td, gr, ref, &cr, bsas, plans, a)
				got := attribute(td, gg, gpp, &cg, bsas, plans, a)
				gpp.Fold()
				switch {
				case !slices.Equal(gpp.LoggedStages(), ref.Stages()):
					t.Errorf("%s/%s %v: per-µop stage times differ from the node form", bench, cfg.Name, a)
				case !slices.Equal(got.path, want.path):
					t.Errorf("%s/%s %v: critical path differs from the node form", bench, cfg.Name, a)
				case got.end != want.end || cg != cr:
					t.Errorf("%s/%s %v: end %d, energy %v; node form %d, %v", bench, cfg.Name, a, got.end, cg, want.end, cr)
				}
				for k, h := range want.classes {
					if got.classes[k] != h {
						t.Errorf("%s/%s %v region %v: classes %v, node form %v", bench, cfg.Name, a, k, got.classes[k], h)
					}
				}
				if len(got.classes) != len(want.classes) {
					t.Errorf("%s/%s %v: %d regions, node form %d", bench, cfg.Name, a, len(got.classes), len(want.classes))
				}
			}
		}
	}
}
