"""Always False: no accelerated kernel exists. Kept because
perfbench/record.py reads it into the benchmark's run record."""

USE_NUMBA = False
