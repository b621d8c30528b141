package topo

import (
	"fmt"
	"io"
	"sort"
)

// Describe writes a human-readable summary of the derived scenario: every
// client's personality and every intermediate's quality, so experimenters
// can see exactly what world a seed produced.
func (s *Scenario) Describe(w io.Writer) {
	fmt.Fprintf(w, "Scenario seed=%d: %d clients, %d intermediates, %d servers\n",
		s.P.Seed, len(s.Clients), len(s.Intermediates), len(s.Servers))
	fmt.Fprintf(w, "  overlay base = %.2f * m^%.2f Mb/s (cap %.2fx), direct theta=1/%.0fs\n",
		overlayA, overlayGamma, pairCapFactor, 1/directTheta)

	fmt.Fprintln(w, "clients:")
	for _, c := range append(append([]*Node{}, s.Clients...), s.Sec4Clients...) {
		cn := s.ClientNet(c)
		flags := ""
		if cn.Variable {
			flags += " variable"
		}
		if cn.SharedBottleneck {
			flags += " shared-bottleneck"
		}
		fmt.Fprintf(w, "  %-16s %-6s direct(eBay)=%5.2f Mb/s sigma=%.2f overlayBase=%5.2f Mb/s rtt=%.0fms%s\n",
			c.Name, c.Category, cn.DirectMean["eBay"]/1e6, cn.DirectSigma,
			cn.OverlayBase/1e6, 2000*(cn.TransitLatency+cn.AccessLatency), flags)
	}

	fmt.Fprintln(w, "intermediates (quality multiplier):")
	type iq struct {
		name string
		q    float64
	}
	var iqs []iq
	for _, in := range s.Intermediates {
		iqs = append(iqs, iq{in.Name, s.InterQuality(in)})
	}
	sort.Slice(iqs, func(i, j int) bool { return iqs[i].q > iqs[j].q })
	for _, v := range iqs {
		fmt.Fprintf(w, "  %-16s %.2f\n", v.name, v.q)
	}
}
