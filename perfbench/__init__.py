"""End-to-end performance ledger for the ``repro`` compressor.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``perfbench/README.md`` for the workloads, the
metric -> layer -> workload map and how to read the traces.
"""
