// Package area computes design-point silicon area: core areas come from
// McPAT-calibrated 22nm-class ballparks (stored on the core configs), and
// BSA areas from the respective publications as the paper does (§4 "we
// use area estimates from relevant publications [17, 18, 36]").
package area

import (
	"exocore/internal/cores"
	"exocore/internal/tdg"
)

// Total returns the area in mm² of a core plus a set of BSAs.
func Total(core cores.Config, bsas []tdg.BSA) float64 {
	a := core.AreaMM2
	for _, b := range bsas {
		a += b.AreaMM2()
	}
	return a
}
