// Package acasx implements an ACAS XU-style airborne collision avoidance
// system developed by model-based optimization, following the construction
// the paper describes (sections II-III) and attributes to the MIT Lincoln
// Laboratory reports ATC-360/ATC-371: a Markov Decision Process over the
// relative vertical geometry of an encounter — relative altitude h, own and
// intruder vertical rates, and the active advisory — indexed by the time to
// horizontal conflict tau, solved offline by backward-induction value
// iteration into a numeric logic table, then executed online by
// interpolating the table at the observed state.
//
// As in the paper, this is a re-implementation from the public reports, not
// the certified system: "Since there is no publicly available source code
// for ACAS XU, we implemented one based on technical reports [2, 3] ... we
// cannot guarantee the performance of the resultant system. It is certainly
// not ready to be used in any real aircraft." The same caveat applies here;
// the implementation captures the properties of the ACAS XU algorithm
// sufficiently to support the validation techniques under study.
package acasx

import (
	"fmt"

	"acasxval/internal/geom"
)

// Advisory is a resolution advisory — the action set of the MDP and the
// output vocabulary of the logic table.
type Advisory int

// The advisory set: clear of conflict, initial climb/descend at 1500 fpm,
// and strengthened climb/descend at 2500 fpm.
const (
	COC Advisory = iota
	Climb1500
	Descend1500
	StrengthenClimb2500
	StrengthenDescend2500
)

// NumAdvisories is the size of the action set.
const NumAdvisories = 5

// String implements fmt.Stringer.
func (a Advisory) String() string {
	switch a {
	case COC:
		return "COC"
	case Climb1500:
		return "CL1500"
	case Descend1500:
		return "DES1500"
	case StrengthenClimb2500:
		return "SCL2500"
	case StrengthenDescend2500:
		return "SDES2500"
	default:
		return fmt.Sprintf("Advisory(%d)", int(a))
	}
}

// Valid reports whether a is a member of the advisory set.
func (a Advisory) Valid() bool { return a >= COC && a < NumAdvisories }

// Sense is the vertical direction of an advisory.
type Sense int

// Advisory senses.
const (
	SenseNone Sense = 0
	SenseUp   Sense = 1
	SenseDown Sense = -1
)

// Sense returns the vertical sense of the advisory.
func (a Advisory) Sense() Sense {
	switch a {
	case Climb1500, StrengthenClimb2500:
		return SenseUp
	case Descend1500, StrengthenDescend2500:
		return SenseDown
	default:
		return SenseNone
	}
}

// Strengthened reports whether the advisory is a strengthened (2500 fpm)
// maneuver.
func (a Advisory) Strengthened() bool {
	return a == StrengthenClimb2500 || a == StrengthenDescend2500
}

// TargetRate returns the commanded vertical rate in m/s.
func (a Advisory) TargetRate() float64 {
	switch a {
	case Climb1500:
		return geom.FPM(1500)
	case Descend1500:
		return geom.FPM(-1500)
	case StrengthenClimb2500:
		return geom.FPM(2500)
	case StrengthenDescend2500:
		return geom.FPM(-2500)
	default:
		return 0
	}
}

// SenseMask restricts the advisory senses the logic may choose; used for
// coordination between aircraft ("if the own-ship chooses a 'climb'
// maneuver, it will send a coordination command to the intruder to require
// it not to choose maneuvers in the same direction").
type SenseMask struct {
	// BanUp forbids climb-sense advisories.
	BanUp bool
	// BanDown forbids descend-sense advisories.
	BanDown bool
}

// Allows reports whether the mask permits the advisory.
func (m SenseMask) Allows(a Advisory) bool {
	switch a.Sense() {
	case SenseUp:
		return !m.BanUp
	case SenseDown:
		return !m.BanDown
	default:
		return true
	}
}
