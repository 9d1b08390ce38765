// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive points at the repository it measures,
// and the shared import-path prefix keeps internal/... importable.
module github.com/haocl-project/haocl/benchmark

go 1.22

require github.com/haocl-project/haocl v0.0.0

replace github.com/haocl-project/haocl => ../
