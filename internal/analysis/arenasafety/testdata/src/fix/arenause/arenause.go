package arenause

import "fix/internal/graph"

func leakRef(g *graph.Graph) {
	r := graph.AcquireRef(g) // want `AcquireRef is acquired into "r" but neither released nor handed off in leakRef: pair it with Release`
	_ = r.OwnerAction()
}

func discardRef(g *graph.Graph) {
	_ = graph.AcquireRefNoCK(g) // want `result of AcquireRefNoCK is discarded: the pooled value leaks`
}

func bareAcquire(g *graph.Graph) {
	graph.AcquireRef(g) // want `result of AcquireRef is neither bound nor released: the pooled value leaks`
}

func pairedRef(g *graph.Graph) int {
	r := graph.AcquireRef(g)
	defer r.Release()
	return r.OwnerAction()
}

func chainedRef(g *graph.Graph) {
	graph.AcquireRefNoCK(g).Release()
}

func handedOff(g *graph.Graph) *graph.Ref {
	r := graph.AcquireRef(g)
	return r
}

func suppressedLeak(g *graph.Graph) {
	r := graph.AcquireRef(g) //eba:arena-ok: the test harness tears the pool down wholesale
	_ = r.OwnerAction()
}

func stalePairing(g *graph.Graph) {
	r := graph.AcquireRef(g)
	r.Release() //eba:arena-ok // want `stale //eba:arena-ok suppression: no diagnostic on this line to suppress`
}
