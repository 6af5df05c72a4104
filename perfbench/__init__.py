"""The repository benchmark: workloads, per-layer tracing and checks (see README.md)."""
