"""Reaching a positive symplectic matrix along a positive path.

Any symmetric positive-definite symplectic target can be connected to the
identity by a path whose generator stays strictly positive definite the
whole way.  The construction pairs eigenvectors into symplectic planes and
spends at most 4*pi of winding per plane, so the total winding never
exceeds 4*pi*n; the generator eigenvalues stay above roughly 6.
"""

import numpy as np

from symporder import extract_hamiltonian, maslov_index, positive_path_to

targets = {
    "diagonal stretch": np.diag([3.0, 0.25, 1.0 / 3.0, 4.0]),
    "identity": np.eye(4),
}

c, s = np.cos(0.6), np.sin(0.6)
rot = np.array([[c, -s], [s, c]])
targets["rotated stretch"] = np.kron(np.eye(2), rot) @ np.diag([2.0, 5.0, 0.5, 0.2]) @ np.kron(np.eye(2), rot).T

for name, target in targets.items():
    n = target.shape[0] // 2
    path = positive_path_to(target, n_samples=512)
    eig_min = float(np.linalg.eigvalsh(extract_hamiltonian(path)).min())
    winding = maslov_index(path).value
    print(f"{name} (Sp({2 * n}))")
    print(f"  endpoint error     {np.abs(path.endpoint - target).max():.2e}")
    print(f"  min generator eig  {eig_min:.3f}  (positivity margin)")
    print(f"  winding            {winding:.6f}  <=  4*pi*n = {4 * np.pi * n:.6f}")
    print()

print("positivity is visible sample by sample: the generator spectrum")
path = positive_path_to(np.diag([2.0, 0.5]), n_samples=512)
eigs = np.linalg.eigvalsh(extract_hamiltonian(path))
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    k = int(frac * (path.n_samples - 1))
    lo, hi = eigs[k]
    print(f"  t = {path.times[k]:.2f}:  eigenvalues [{lo:8.3f}, {hi:8.3f}]")
