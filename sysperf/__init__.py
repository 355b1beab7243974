"""System benchmark for the SSDRec serving, data and online stack.

Run one workload with ``python3 sysperf/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``sysperf/README.md``.
"""
