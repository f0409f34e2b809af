// Package refsim is an *independent* cycle-stepped out-of-order/in-order
// pipeline simulator used to cross-validate the µDG core model, playing
// the role of the paper's detailed gem5 reference (§2.5, the
// "OOO8→OOO1 / OOO1→OOO8" cross-validation). It shares only the trace
// format and core Config with the graph model; the timing algorithm is a
// classic time-stepped state machine (fetch/dispatch/ready-select/
// execute/commit over an explicit ROB with producer links), not a
// dependence-graph longest-path solver, so agreement between the two is
// meaningful evidence rather than tautology.
package refsim

import (
	"exocore/internal/cores"
	"exocore/internal/isa"
	"exocore/internal/trace"
)

type entry struct {
	producers [4]int32 // trace indexes of producing instructions (-1 none)
	earliest  int64    // dispatch + frontend depth
	issueAt   int64    // -1 until issued
	doneAt    int64
}

// frontDepth is the fetch→issue-readiness pipeline depth.
const frontDepth = 3

// Simulate runs the annotated trace through the cycle-level model and
// returns total cycles.
func Simulate(cfg cores.Config, tr *trace.Trace) int64 {
	n := len(tr.Insts)
	if n == 0 {
		return 0
	}

	robCap := cfg.ROB
	if cfg.InOrder {
		robCap = cfg.InFlight
		if robCap == 0 {
			robCap = 16
		}
	}
	window := cfg.Window
	if window <= 0 || window > robCap {
		window = robCap
	}

	entries := make([]entry, n)
	var regProducer [isa.NumRegs]int32
	for i := range regProducer {
		regProducer[i] = -1
	}
	storeProducer := make(map[uint64]int32)

	head, next := 0, 0 // oldest in-flight, next to dispatch
	var cycle, fetchReadyAt int64
	// blockedOn is the index of a dispatched-but-unresolved mispredicted
	// branch; correct-path fetch cannot proceed past it.
	blockedOn := -1

	ready := func(i int, now int64) bool {
		e := &entries[i]
		if e.earliest > now {
			return false
		}
		for _, p := range e.producers {
			if p < 0 {
				continue
			}
			pe := &entries[p]
			if pe.issueAt < 0 || pe.doneAt > now {
				return false
			}
		}
		return true
	}

	for head < n {
		// --- Commit: up to width oldest finished entries. ---
		commits := cfg.Width
		for head < n && head < next && commits > 0 {
			e := &entries[head]
			if e.issueAt < 0 || e.doneAt > cycle {
				break
			}
			head++
			commits--
		}
		if head >= n {
			break
		}

		// --- Issue: oldest-first over the issue queue (the window holds
		// only not-yet-issued instructions; issued ones free their slot).
		alu, mul, fp, ports := cfg.IntAlu, cfg.IntMulDiv, cfg.FpUnits, cfg.DCachePorts
		issued, waiting := 0, 0
		for i := head; i < next && issued < cfg.Width && waiting < window; i++ {
			e := &entries[i]
			if e.issueAt >= 0 {
				continue
			}
			waiting++
			if !ready(i, cycle) {
				if cfg.InOrder {
					break
				}
				continue
			}
			in := tr.Static(i)
			var pool *int
			switch in.Op.ClassOf() {
			case isa.ClassIntMul, isa.ClassIntDiv:
				pool = &mul
			case isa.ClassFpAdd, isa.ClassFpMul, isa.ClassFpDiv,
				isa.ClassVecAlu, isa.ClassVecMul:
				pool = &fp
			case isa.ClassLoad, isa.ClassStore, isa.ClassVecMem:
				pool = &ports
			default:
				pool = &alu
			}
			if *pool <= 0 {
				if cfg.InOrder {
					break
				}
				continue
			}
			*pool--
			issued++
			e.issueAt = cycle
			d := &tr.Insts[i]
			lat := int64(in.Op.Latency())
			if in.Op.IsMem() {
				lat = int64(d.MemLat)
				if in.Op.IsStore() {
					lat = 1
				}
			}
			if lat < 1 {
				lat = 1
			}
			e.doneAt = cycle + lat
			if in.Op.IsBranch() && d.Mispredicted() {
				if refill := e.doneAt + int64(cfg.FrontendDepth); refill > fetchReadyAt {
					fetchReadyAt = refill
				}
				if blockedOn == i {
					blockedOn = -1 // resolved; refill timer now governs
				}
			}
		}

		// --- Dispatch: fill the ROB from the trace. ---
		if blockedOn < 0 && cycle >= fetchReadyAt {
			dispatches := cfg.Width
			for dispatches > 0 && next < n && next-head < robCap {
				d := &tr.Insts[next]
				in := tr.Static(next)
				e := &entries[next]
				e.issueAt = -1
				e.earliest = cycle + frontDepth
				e.producers = [4]int32{-1, -1, -1, -1}
				if in.Src1.Valid() && in.Src1 != isa.RZ {
					e.producers[0] = regProducer[in.Src1]
				}
				if in.Src2.Valid() && in.Src2 != isa.RZ {
					e.producers[1] = regProducer[in.Src2]
				}
				if in.Op == isa.FMA && in.Dst.Valid() {
					e.producers[2] = regProducer[in.Dst]
				}
				if in.Op.IsLoad() {
					if p, ok := storeProducer[d.Addr&^7]; ok {
						e.producers[3] = p
					}
				}
				if in.Dst != isa.NoReg && in.Dst != isa.RZ {
					regProducer[in.Dst] = int32(next)
				}
				if in.Op.IsStore() {
					storeProducer[d.Addr&^7] = int32(next)
					if len(storeProducer) > 8192 {
						storeProducer = map[uint64]int32{d.Addr &^ 7: int32(next)}
					}
				}
				// A mispredicted branch ends the fetch stream: everything
				// after it is wrong-path until it resolves. A (predicted)
				// taken branch ends the fetch group: the target arrives
				// next cycle.
				misBr := in.Op.IsBranch() && d.Mispredicted()
				taken := in.Op.IsCtrl() && d.Taken()
				next++
				dispatches--
				if misBr {
					blockedOn = next - 1
					break
				}
				if taken {
					break
				}
			}
		}

		cycle++
		if cycle > int64(n)*300+100000 {
			break // fail-safe against model deadlock; tests flag this
		}
	}
	return cycle
}
