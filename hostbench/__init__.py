"""hostbench: the repository's host-time benchmark.

Four workloads, two clocks (host wall time and the simulator's own
discrete-event clock), and a layer-attributed traced repetition.  It
times the public functions of ``src/repro`` from outside and changes
nothing there.  See ``hostbench/README.md``.
"""
