"""perfbench: the repo's benchmark (see perfbench/README.md and BENCHMARK.json)."""
