// The benchmark is a module of its own so that it builds from its own
// build file; the replace directive points it at the engine it measures.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
