// Package core implements the paper's primary contribution: families
// of preferred repairs selected by a priority (§3). It provides the
// optimality conditions (locally / semi-globally / globally optimal,
// common) and the repair preference relation ≪ (Proposition 5), all in
// component-local index space (local.go); the repair check built on
// them (Check); and per-component enumerators and counters for each
// family:
//
//	Rep     all repairs                         (no priority used)
//	L-Rep   locally optimal repairs             (§3.1)
//	S-Rep   semi-globally optimal repairs       (§3.2)
//	G-Rep   globally optimal repairs            (§3.3)
//	C-Rep   common repairs = Algorithm 1 output (§3.5, Prop. 7)
//
// The families form a chain C ⊆ G ⊆ S ⊆ L ⊆ Rep (Props. 3, 4, 6).
//
// All evaluation decomposes over the connected components of the
// conflict graph. The package-level All and ChoicesForComponent run on
// the sequential reference engine (Sequential); an Engine evaluates the
// same decomposition on a worker pool with optional memoization of
// per-component choice sets, producing bit-for-bit identical results.
package core

import (
	"fmt"
	"strings"
)

// Family names one of the paper's preferred-repair families.
type Family int

const (
	// Rep is the family of all repairs — classic consistent query
	// answers with no preference input [1].
	Rep Family = iota
	// Local is L-Rep, the locally optimal repairs (§3.1).
	Local
	// SemiGlobal is S-Rep, the semi-globally optimal repairs (§3.2).
	SemiGlobal
	// Global is G-Rep, the globally optimal repairs (§3.3).
	Global
	// Common is C-Rep, the common repairs (§3.5).
	Common
)

// Families lists all families in containment order (largest first).
var Families = []Family{Rep, Local, SemiGlobal, Global, Common}

// NumFamilies is len(Families) as a constant, for per-family arrays
// indexed by Family.
const NumFamilies = int(Common) + 1

// String returns the paper's name for the family.
func (f Family) String() string {
	switch f {
	case Rep:
		return "Rep"
	case Local:
		return "L-Rep"
	case SemiGlobal:
		return "S-Rep"
	case Global:
		return "G-Rep"
	case Common:
		return "C-Rep"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// ParseFamily accepts "rep", "l", "local", "l-rep", "s", "semiglobal",
// "s-rep", "g", "global", "g-rep", "c", "common", "c-rep"
// (case-insensitive).
func ParseFamily(s string) (Family, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "rep", "all":
		return Rep, nil
	case "l", "local", "l-rep", "lrep":
		return Local, nil
	case "s", "semiglobal", "semi-global", "s-rep", "srep":
		return SemiGlobal, nil
	case "g", "global", "g-rep", "grep":
		return Global, nil
	case "c", "common", "c-rep", "crep":
		return Common, nil
	default:
		return 0, fmt.Errorf("core: unknown repair family %q", s)
	}
}
