"""The repository benchmark: ``python -m bench`` (see ``bench/README.md``).

Six long-running workloads, end-to-end metrics per packet and per job, and a
per-layer ledger (phase spans, cProfile attribution by module, isolated
drivers, exact counts).  Everything here drives ``repro`` through its public
surface; nothing under ``src/`` knows this package exists.
"""
