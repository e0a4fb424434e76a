"""Test oracles: the retained reference engines and result fingerprints.

The flat-array kernels in :mod:`repro.partition` and
:mod:`repro.hypergraph` are held bit-identical to the straightforward
implementations kept here.  Only the differential tests and
``benchmarks/gates.py`` import this package; the product never does.
"""
