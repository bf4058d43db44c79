"""Relative growth, the staircase, and the metric line of dominant paths.

For dominant paths X, Y the integer gamma_n is the least power p such that
X^p dominates Y^n in the bi-invariant order; gamma_n / n converges to the
ratio of homogenized windings.  The pseudo-distance K built from growth both
ways is realized on a line: the coordinate of a dominant path is the log of
its homogenized winding, and coordinate differences reproduce K.
"""

import numpy as np

from symporder import (
    gamma_closed_symplectic,
    growth_estimate,
    pseudo_distance_k,
    rotation_loop,
    z_coordinate,
)

slow = rotation_loop(1, 513)
fast = rotation_loop(2, 513)
triple = rotation_loop(3, 513)

print("staircase for X = one loop, Y = two loops (true growth 2)")
est = growth_estimate(slow, fast)
print("      n :", "  ".join(f"{n:5d}" for n in est.ns))
print("  gamma_n:", "  ".join(f"{g:5d}" for g in est.gamma_ns))
print("  g_n / n:", "  ".join(f"{g / n:5.3f}" for g, n in zip(est.gamma_ns, est.ns)))
print(f"  limit estimate {est.limit_estimate.value:.4f}"
      f"  in [{est.limit_estimate.lower:.4f}, {est.limit_estimate.upper:.4f}]")
print(f"  closed form    {est.closed_form:.12f}")
print()

print("a non-integer growth ratio: X = two loops, Y = three loops")
est = growth_estimate(fast, triple)
print("      n :", "  ".join(f"{n:5d}" for n in est.ns))
print("  gamma_n:", "  ".join(f"{g:5d}" for g in est.gamma_ns))
print(f"  gamma_64 / 64 = {est.gamma_ns[-1] / est.ns[-1]:.6f}"
      f"   closed form {est.closed_form:.6f}")
print()

print("the metric line: z-coordinates are logs of homogenized windings")
for name, path in (("1 loop", slow), ("2 loops", fast), ("3 loops", triple)):
    point = z_coordinate(path)
    print(f"  {name}:  z = {point.coordinate:+.6f}"
          f"   (log winding, winding = {np.exp(point.coordinate):.6f})")

print()
print("coordinate differences reproduce the pseudo-distance K")
pairs = ((slow, fast, "1 loop vs 2 loops"),
         (fast, triple, "2 loops vs 3 loops"),
         (slow, triple, "1 loop vs 3 loops"))
for x, y, label in pairs:
    dist = pseudo_distance_k(x, y)
    dz = abs(z_coordinate(x).coordinate - z_coordinate(y).coordinate)
    gamma = gamma_closed_symplectic(x, y).value
    print(f"  {label}:  K = {dist.value:.6f}   |dz| = {dz:.6f}"
          f"   gamma = {gamma:.4f}")
