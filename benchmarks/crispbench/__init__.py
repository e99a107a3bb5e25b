"""crispbench — the repository's one benchmark.

Four named workloads (``edge-hot``, ``batch-proc``, ``cold-churn``,
``onboard``) drive the serving stack gateway → cluster → scheduler → engine →
kernel from a single caller, report nine end-to-end metrics with tracing off,
and in a separate traced run decompose each request into per-layer spans
recorded from outside the program.  ``BENCHMARK.json`` at the repository root
names the command; ``README.md`` in this directory is the metric glossary.

The benchmark owns its load generator, clock, percentile code and spans.  It
imports from ``src/`` only the public serving surface it measures and never
``repro.loadgen``, ``repro.trace`` or ``benchlib``, so a later change that
rewrites those cannot change the ruler.
"""
