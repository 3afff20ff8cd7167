// e2ebench is a module of its own so the benchmark carries its own build
// file (BENCHMARK.json's contract). The import path stays under repro/ so
// the traced run may import repro/internal/...; the replace points at the
// checkout the benchmark measures.
module repro/cmd/e2ebench

go 1.24

require repro v0.0.0

replace repro => ../..
