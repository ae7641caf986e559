// Package graph is a fixture stub matched by the arenasafety analyzer
// through its (package-path suffix, name) pairs; only the signatures
// matter.
package graph

type Graph struct{}

type Ref struct{}

func AcquireRef(g *Graph) *Ref { return &Ref{} }

func AcquireRefNoCK(g *Graph) *Ref { return &Ref{} }

func (r *Ref) Release() {}

func (r *Ref) OwnerAction() int { return 0 }
