"""The repository benchmark: named partitioner workloads, end-to-end
metrics from untraced runs and a per-layer split from a traced run.

Run it with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``run.py``.
"""
