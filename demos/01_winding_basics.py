"""Winding numbers of symplectic paths, two independent ways.

The winding of a path in Sp(2n, R) is the total change of arg det of the
unitary polar factor, in radians: the basic rotation loop scores 2*pi.  It is
read in closed form, without a polar decomposition: the complex-linear part
(X - J X J)/2 of each sample has a complex determinant with the same phase.
For paths of unitary matrices the same number is the time integral of the
trace of the generator, which gives a completely independent cross-check.
"""

import numpy as np

from symporder import (
    maslov_index,
    maslov_via_trace,
    rotation_loop,
    random_unitary_path,
)

print("k-fold rotation loops")
for k in range(1, 6):
    result = maslov_index(rotation_loop(k, 1024))
    print(f"  k={k}: winding = {result.value:.12f}"
          f"  ({result.turns:.6f} turns, expect {k})")

print()
print("random unitary paths: determinant route vs trace route")
for i in range(4):
    rng = np.random.default_rng([11, i])
    n = 1 + i % 2
    path = random_unitary_path(n, rng, scale=2.0, n_samples=2048)
    via_det = maslov_index(path).value
    via_trace = maslov_via_trace(path)
    print(f"  dim {2 * n}: det route {via_det:+.8f}"
          f"  trace route {via_trace:+.8f}"
          f"  diff {abs(via_det - via_trace):.2e}")

print()
print("the trace route converges at second order in the sampling step")
rng = np.random.default_rng([11, 100])
from symporder.generators import random_hermitian_generator, unitary_path_from_generator

h = random_hermitian_generator(2, rng, scale=2.0)
prev = None
for n_samples in (256, 512, 1024, 2048):
    path = unitary_path_from_generator(h, 2, n_samples)
    diff = abs(maslov_index(path).value - maslov_via_trace(path))
    rate = "" if prev is None else f"  improvement x{prev / diff:.1f}"
    print(f"  {n_samples:5d} samples: |difference| = {diff:.3e}{rate}")
    prev = diff
