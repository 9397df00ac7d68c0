package core

import (
	"prefcqa/internal/bitset"
	"prefcqa/internal/priority"
)

// The package-level functions below evaluate on the sequential
// reference engine (one worker, no cache). They define the semantics
// every Engine configuration must reproduce bit-for-bit; use an
// Engine for parallelism and memoization.

// ChoicesForComponent returns the component restrictions of the
// family's preferred repairs for a single connected component, in
// component-local form. Every preferred repair is exactly one union
// of one choice per component:
//
//   - the optimality conditions of L, S and G only relate tuples to
//     their conflict neighborhoods, hence decompose componentwise;
//   - C-Rep decomposes because Algorithm 1's choices in different
//     components commute, so its outcomes are the product of each
//     component's outcomes (clean.LocalOutcomes).
//
// The computation runs in component-local index space (local.go).
func ChoicesForComponent(f Family, p *priority.Priority, comp []int) Choices {
	return Choices{Comp: comp, Local: sequential.componentLocalChoices(f, p, comp)}
}

// All materializes every preferred repair of the family. Use only
// when the count is known to be small; an Engine enumerates lazily.
func All(f Family, p *priority.Priority) []*bitset.Set {
	return sequential.All(f, p)
}
