package acasx

import (
	"fmt"
	"strings"
)

// RenderPolicySlice draws the generated policy over the (tau, h) plane for
// fixed own/intruder vertical rates — the classic ACAS X advisory-region
// diagram. Rows are relative altitudes (top = +HMax), columns are tau
// values 0..Horizon. Cells show the advisory chosen from the COC advisory
// state:
//
//	'.' COC   '^' CL1500   'v' DES1500   'C' SCL2500   'D' SDES2500
func (t *Table) RenderPolicySlice(dh0, dh1 float64, rows int) string {
	if rows < 5 {
		rows = 21
	}
	hmax := t.cfg.Grid.HMax
	var sb strings.Builder
	fmt.Fprintf(&sb, "advisory regions at own rate %+.1f m/s, intruder rate %+.1f m/s\n", dh0, dh1)
	fmt.Fprintf(&sb, "rows: h in [%+.0f, %+.0f] m; columns: tau 0..%d s\n", hmax, -hmax, t.Horizon())
	for r := 0; r < rows; r++ {
		h := hmax - 2*hmax*float64(r)/float64(rows-1)
		fmt.Fprintf(&sb, "h %+6.0f |", h)
		for k := 0; k <= t.Horizon(); k++ {
			best, _ := t.BestAdvisory(float64(k), h, dh0, dh1, COC, SenseMask{})
			sb.WriteByte(advisoryGlyph(best))
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("legend: . COC   ^ CL1500   v DES1500   C SCL2500   D SDES2500\n")
	return sb.String()
}

func advisoryGlyph(a Advisory) byte {
	switch a {
	case Climb1500:
		return '^'
	case Descend1500:
		return 'v'
	case StrengthenClimb2500:
		return 'C'
	case StrengthenDescend2500:
		return 'D'
	default:
		return '.'
	}
}
