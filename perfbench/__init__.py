"""The repository's benchmark: workloads, tracing and the result line.

Run with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md``.
"""
