"""Acceptance criteria for the package, runnable as a suite.

Each criterion is a self-contained function returning a result record; the
pytest wrapper asserts on it and the command line ``verify`` subcommand
prints one pass/fail line per criterion.  Tolerances are pinned here and are
part of the package contract.  All randomness is keyed by
``default_rng([seed, stream])`` so a seed fully determines a run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import generators as gen
from . import growth, maslov, prequant
from .paths import (ConeStatus, SampledPath, compose, min_generator_eigenvalue, order_leq,
                    pointwise_power)

DEFAULT_SEED = 7


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        shown = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{status}] {self.cid} {self.name}: {shown}"


# --------------------------------------------------------------------- C1

ROTATION_TOL = 1e-8
ROTATION_SAMPLES = 1024
ROTATION_TIME_BUDGET = 1.0


def criterion_rotation_loops(seed: int = DEFAULT_SEED) -> CriterionResult:
    """k-fold rotation loops score winding 2*pi*k, quickly."""
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 6):
        value = maslov.maslov_index(gen.rotation_loop(k, ROTATION_SAMPLES)).value
        worst = max(worst, abs(value - 2.0 * np.pi * k))
    elapsed = time.perf_counter() - start
    passed = worst <= ROTATION_TOL and elapsed < ROTATION_TIME_BUDGET
    return CriterionResult("C1", "rotation loop winding", passed,
                           {"max_error": f"{worst:.2e}", "seconds": f"{elapsed:.2f}"})


# --------------------------------------------------------------------- C2

TRACE_TOL = 1e-5
TRACE_SAMPLES = 2048
TRACE_MIN_ORDER = 1.8


def criterion_trace_formula(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Winding via generator traces agrees with the closed-form determinant route.

    The determinant route winds arg det_C of each sample's complex-linear
    part; the trace route integrates tr h(t).  They share no code.
    """
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng([seed, 2, i])
        n = 1 if i % 2 == 0 else 2
        path = gen.random_unitary_path(n, rng, n_samples=TRACE_SAMPLES)
        diff = abs(maslov.maslov_index(path).value - maslov.maslov_via_trace(path))
        worst = max(worst, diff)
    orders = []
    for i in range(6):
        rng = np.random.default_rng([seed, 2, 1000 + i])
        n = 1 if i % 2 == 0 else 2
        h = gen.random_hermitian_generator(n, rng)
        errs = []
        for n_samples in (256, 512, 1024):
            path = gen.unitary_path_from_generator(h, n, n_samples)
            errs.append(abs(maslov.maslov_index(path).value
                            - maslov.maslov_via_trace(path)))
        orders.extend(np.log2(np.array(errs[:-1]) / np.array(errs[1:])))
    order = float(np.median(orders))
    passed = worst <= TRACE_TOL and order >= TRACE_MIN_ORDER
    return CriterionResult("C2", "trace formula", passed,
                           {"max_diff": f"{worst:.2e}", "median_order": f"{order:.2f}"})


# --------------------------------------------------------------------- C3

SYNTH_ENDPOINT_TOL = 1e-8
SYNTH_MIN_EIG = 1e-6
SYNTH_WINDING_TOL = 1e-6


def criterion_positive_synthesis(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Synthesized positive paths reach their target within budgeted winding."""
    worst_end, worst_min, worst_excess = 0.0, np.inf, -np.inf
    for i in range(50):
        rng = np.random.default_rng([seed, 3, i])
        n = 1 if i % 2 == 0 else 2
        target = gen.random_positive_diagonal_target(n, rng)
        path = maslov.positive_path_to(target)
        worst_end = max(worst_end, float(np.abs(path.endpoint - target).max()))
        worst_min = min(worst_min, min_generator_eigenvalue(path))
        winding = maslov.maslov_index(path).value
        worst_excess = max(worst_excess, winding - 4.0 * np.pi * n)
    passed = (worst_end <= SYNTH_ENDPOINT_TOL and worst_min > SYNTH_MIN_EIG
              and worst_excess <= SYNTH_WINDING_TOL)
    return CriterionResult("C3", "positive path synthesis", passed,
                           {"max_endpoint_err": f"{worst_end:.2e}",
                            "min_generator_eig": f"{worst_min:.3f}",
                            "max_winding_excess": f"{worst_excess:.2e}"})


# --------------------------------------------------------------------- C4

REDIST_TRACE_TOL = 1e-9
REDIST_GAP_TOL = 1e-9
REDIST_ENDPOINT_TOL = 1e-8


def criterion_redistribution(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Spectrum redistribution: trace, positivity, gap and endpoint checks."""
    worst_trace, worst_gap, worst_end, min_eig = 0.0, -np.inf, 0.0, np.inf
    for i in range(100):
        rng = np.random.default_rng([seed, 4, i])
        n = 2 if i % 2 == 0 else 3
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = 1.5 * (z + z.conj().T)
        w = np.linalg.eigvalsh(a)
        reduced = np.mod(w, 2 * np.pi)
        reduced[reduced <= 1e-12] += 2 * np.pi
        k = int(rng.integers(0, 2 * n + 1))
        if reduced.sum() + 2 * np.pi * k < 2 * np.pi * n:
            k += n
        target = reduced.sum() + 2 * np.pi * k
        spectrum = maslov.redistribute_eigenvalues(a, target)
        worst_trace = max(worst_trace,
                          abs(float(spectrum.eigenvalues.sum()) - target))
        min_eig = min(min_eig, float(spectrum.eigenvalues.min()))
        gap = float(spectrum.eigenvalues.max() - spectrum.eigenvalues.min())
        worst_gap = max(worst_gap, gap - 2 * np.pi * n)
        end_err = float(np.abs(maslov.unitary_endpoint(spectrum)
                               - maslov.exp_i_hermitian(a)).max())
        worst_end = max(worst_end, end_err)
    passed = (worst_trace <= REDIST_TRACE_TOL and min_eig >= 0.0
              and worst_gap <= REDIST_GAP_TOL and worst_end <= REDIST_ENDPOINT_TOL)
    return CriterionResult("C4", "eigenvalue redistribution", passed,
                           {"max_trace_err": f"{worst_trace:.2e}",
                            "min_eigenvalue": f"{min_eig:.3f}",
                            "max_gap_excess": f"{worst_gap:.2e}",
                            "max_endpoint_err": f"{worst_end:.2e}"})


# --------------------------------------------------------------------- C5

STAIRCASE_N = 64
STAIRCASE_SAMPLES = 2049


def criterion_growth_staircase(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Brute-force growth matches the closed form on commuting unitary pairs:
    ``gamma_closed_symplectic``, there maslov(Y) / maslov(X) bit for bit."""
    worst_margin = -np.inf
    for i in range(20):
        rng = np.random.default_rng([seed, 5, i])
        x, y, _ = gen.commuting_unitary_pair(2, rng, n_samples=STAIRCASE_SAMPLES)
        closed = growth.gamma_closed_symplectic(x, y).value
        n = STAIRCASE_N
        p_max = int(np.ceil(abs(closed) * n)) + 8
        gamma_n = growth.gamma_n_bruteforce(x, y, n, p_max)
        if gamma_n is None:
            return CriterionResult("C5", "growth staircase vs winding ratio", False,
                                   {"failure": f"no certified power for pair {i}"})
        deviation = abs(gamma_n / n - closed)
        bound = (1.0 + closed) / n
        worst_margin = max(worst_margin, deviation - bound)
    passed = worst_margin <= 0.0
    return CriterionResult("C5", "growth staircase vs winding ratio", passed,
                           {"worst_margin": f"{worst_margin:.2e}"})


# --------------------------------------------------------------------- C6

ISO_TOL = 1e-9
CONJUGATION_TOL = 1e-10


def criterion_line_isometry(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Z-coordinates reproduce pseudo-distances and respect certified order;
    off U(n), z(X^k) = z(X) + log k and z(P X P^-1) = z(X) for P = diag(4, 1/4)."""
    rng = np.random.default_rng([seed, 6])
    rotations = []
    for i in range(7):
        w = float(rng.uniform(2.0, 12.0))
        d = float(rng.uniform(-0.8, 0.8)) * w
        t = gen.uniform_times(513)
        theta = (w * t + d * np.sin(2 * np.pi * t) / (2 * np.pi))[:, None]
        rotations.append(gen.diagonal_unitary_path(theta, t))
    base = maslov.positive_path_to(np.diag([2.0, 0.5]), n_samples=513)
    worst_mismatch = 0.0
    order_ok = True
    powers = [pointwise_power(base, k) for k in (1, 2, 3)]
    z_rot, z_pow = ([growth.z_coordinate(p).coordinate for p in f] for f in (rotations, powers))
    for family, zs in ((rotations, z_rot), (powers, z_pow)):
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                dist = growth.pseudo_distance_k(family[a], family[b]).value
                worst_mismatch = max(worst_mismatch, abs(abs(zs[a] - zs[b]) - dist))
                verdict = order_leq(family[a], family[b])
                if verdict.certifies and verdict.status is ConeStatus.DOMINANT:
                    # certified family[b] > family[a]: coordinates must agree
                    if zs[b] < zs[a] - ISO_TOL:
                        order_ok = False
    worst_power = max(abs(z - z_pow[0] - np.log(k)) for k, z in enumerate(z_pow, 1))
    p = np.diag([4.0, 0.25])
    conjugated = SampledPath(base.times, p @ base.matrices @ np.linalg.inv(p))
    conjugation = abs(growth.z_coordinate(conjugated).coordinate - z_pow[0])
    passed = (worst_mismatch <= ISO_TOL and worst_power <= ISO_TOL
              and conjugation <= CONJUGATION_TOL and order_ok)
    return CriterionResult("C6", "metric line isometry", passed,
                           {"worst_mismatch": f"{worst_mismatch:.2e}",
                            "worst_power_log": f"{worst_power:.2e}",
                            "conjugation_error": f"{conjugation:.2e}",
                            "order_monotone": order_ok})


# --------------------------------------------------------------------- C7

DEFECT_EXACT_TOL = 1e-6


def criterion_homogenization_defect(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Homogenization obeys the sampled defect bound; exact cases are additive."""
    c_emp = maslov.defect_constant(2, num_pairs=20, seed=seed)
    worst_margin = -np.inf
    for i in range(20):
        rng = np.random.default_rng([seed, 7, i])
        path = gen.random_symplectic_path(2, rng, scale=1.5, n_samples=256)
        seq = maslov.homogenize(path, 8)
        for k in (1, 2, 4):
            margin = abs(seq[k - 1] - seq[2 * k - 1]) - c_emp / k
            worst_margin = max(worst_margin, margin)
    worst_exact = 0.0
    for i in range(5):
        rng = np.random.default_rng([seed, 7, 100 + i])
        mult_x = [int(rng.integers(1, 4))]
        mult_y = [int(rng.integers(1, 4))]
        loops = gen.unitary_loop(mult_x, n_samples=512), gen.unitary_loop(mult_y, n_samples=512)
        for x, y in (loops, gen.commuting_unitary_pair(2, rng, n_samples=512)[:2]):
            defect = abs(maslov.maslov_index(compose(x, y)).value
                         - maslov.maslov_index(x).value - maslov.maslov_index(y).value)
            worst_exact = max(worst_exact, defect)
    passed = worst_margin <= 0.0 and worst_exact <= DEFECT_EXACT_TOL
    return CriterionResult("C7", "homogenization defect bound", passed,
                           {"c_emp": f"{c_emp:.3f}",
                            "worst_margin": f"{worst_margin:.2e}",
                            "worst_exact_defect": f"{worst_exact:.2e}"})


# --------------------------------------------------------------------- C8

QUANT_GRID = 1024
QUANT_NS = (1, 10, 100, 1000, 10000)
QUANT_K_TOL = 1e-12


def _random_dominant(rng: np.random.Generator) -> prequant.QuantElement:
    (p,) = prequant.torus_grid((QUANT_GRID,))
    values = np.zeros(QUANT_GRID)
    for mode in range(1, 4):
        values += rng.normal() * np.cos(2 * np.pi * mode * p)
        values += rng.normal() * np.sin(2 * np.pi * mode * p)
    leaf = prequant.normalize_leaf(values)
    shift = prequant.hofer_norms(leaf).minus + float(rng.uniform(0.2, 2.0))
    return prequant.QuantElement(shift, leaf)


def criterion_quant_growth(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Quantomorphism growth ladder brackets its closed form; K is consistent."""
    worst_low, worst_high, worst_k = 0.0, 0.0, 0.0
    for i in range(20):
        rng = np.random.default_rng([seed, 8, i])
        a, b = _random_dominant(rng), _random_dominant(rng)
        gamma = prequant.gamma_quant(a, b)
        for n in QUANT_NS:
            m = prequant.gamma_n_quant_bruteforce(a, b, n)
            worst_low = max(worst_low, gamma - m / n)
            worst_high = max(worst_high, m / n - (gamma + 1.0 / n))
        k_direct = prequant.k_quant(a, b)
        k_via_gamma = max(np.log(prequant.gamma_quant(a, b)),
                          np.log(prequant.gamma_quant(b, a)))
        worst_k = max(worst_k, abs(k_direct - k_via_gamma))
    passed = (worst_low <= 1e-12 and worst_high <= 1e-12 and worst_k <= QUANT_K_TOL)
    return CriterionResult("C8", "quantomorphism growth ladder", passed,
                           {"worst_below_gamma": f"{worst_low:.2e}",
                            "worst_above_band": f"{worst_high:.2e}",
                            "max_k_inconsistency": f"{worst_k:.2e}"})


# --------------------------------------------------------------------- C9

ROTDIST_TOL = 1e-6
ROTDIST_FINE_POINTS = 100000


def _direct_rotation_distance(s: float, f: prequant.LeafFunction) -> float:
    norms = prequant.hofer_norms(f)
    hi, lo = s + norms.plus, s - norms.minus

    def k_to_rotation(t):
        return np.maximum(np.log(hi / t), np.log(t / lo))

    coarse = np.geomspace(lo * 1e-2, hi * 1e2, 10000)
    t0 = coarse[np.argmin(k_to_rotation(coarse))]
    fine = np.geomspace(t0 / 1.05, t0 * 1.05, ROTDIST_FINE_POINTS)
    return float(k_to_rotation(fine).min())


def criterion_rotation_distance(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Closed-form rotation-curve distance matches direct minimization."""
    (p,) = prequant.torus_grid((QUANT_GRID,))
    cos_leaf = prequant.normalize_leaf(np.cos(2 * np.pi * p))
    closed = prequant.rotation_curve_distance(2.0, cos_leaf)
    direct = _direct_rotation_distance(2.0, cos_leaf)
    cos_err = abs(closed.value - direct)
    formula_err = abs(closed.value - 0.5 * np.log(3.0))
    zero = prequant.normalize_leaf(np.zeros(QUANT_GRID))
    worst_zero = 0.0
    for s in np.linspace(0.3, 6.0, 10):
        worst_zero = max(worst_zero, abs(prequant.rotation_curve_distance(float(s), zero).value))
    passed = cos_err <= ROTDIST_TOL and formula_err <= ROTDIST_TOL and worst_zero == 0.0
    return CriterionResult("C9", "rotation curve distance", passed,
                           {"vs_direct_min": f"{cos_err:.2e}",
                            "vs_half_log3": f"{formula_err:.2e}",
                            "zero_function_max": f"{worst_zero:.2e}"})


# --------------------------------------------------------------------- C10

EMBED_TOL = 1e-12


def criterion_embedding_isometry(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Embedding into the metric line turns K into the sup-norm distance."""
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng([seed, 10, i])
        f = prequant.normalize_leaf(rng.normal(size=QUANT_GRID))
        g = prequant.normalize_leaf(rng.normal(size=QUANT_GRID))
        lhs = prequant.k_quant(prequant.embed_into_z(f), prequant.embed_into_z(g))
        rhs = float(np.abs(f.values - g.values).max())
        worst = max(worst, abs(lhs - rhs))
    passed = worst <= EMBED_TOL
    return CriterionResult("C10", "embedding isometry", passed,
                           {"max_mismatch": f"{worst:.2e}"})


# --------------------------------------------------------------------- C11

CW_TOL = 1e-12


def criterion_calabi_weinstein(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The Calabi-Weinstein invariant vanishes on normalized families."""
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng([seed, 11, i])
        steps = int(rng.integers(3, 12))
        family = [prequant.normalize_leaf(rng.normal(size=256)) for _ in range(steps)]
        worst = max(worst, abs(prequant.calabi_weinstein(family)))
    passed = worst <= CW_TOL
    return CriterionResult("C11", "calabi-weinstein vanishing", passed,
                           {"max_abs_value": f"{worst:.2e}"})


# --------------------------------------------------------------------- C12

UNITARY_STAIRCASE_NS = (8, 64)
UNITARY_STAIRCASE_SAMPLES = 1025
# (speeds of X, speeds of Y, gamma_64) of diagonal pairs whose angles turn
# 2 pi times the speed: the first is a pair of loops
DIAGONAL_STAIRCASES = (((1.0, 3.0), (3.0, 1.0), 64), ((1.3, 2.9), (3.1, 0.7), 58))
DIAGONAL_SAMPLES = 513


def _unitary_staircase_pair(rng: np.random.Generator, n: int, commuting: bool):
    """A dominant pair in U(n) inside Sp(2n) with speed profiles that are not
    multiples of each other: diagonal in one random basis, or each an offset
    above its own random Hermitian modes (spectral norm at most 2 + 2 sqrt 2)."""
    if commuting:
        v = gen.random_unitary_matrix(n, rng)
        vh = v.conj().T

        def draw():
            w = rng.uniform(2.0, 4.0, size=n)
            d = rng.uniform(-0.6, 0.6, size=n) * w
            return lambda t: (v * (w + d * np.cos(2 * np.pi * t))) @ vh
    else:
        def draw():
            offset, modes = rng.uniform(5.0, 8.0), gen.random_hermitian_generator(n, rng)
            return lambda t: offset * np.eye(n) + modes(t)
    return tuple(gen.unitary_path_from_generator(draw(), n, UNITARY_STAIRCASE_SAMPLES)
                 for _ in range(2))


def criterion_unitary_staircase(seed: int = DEFAULT_SEED) -> CriterionResult:
    """On unitary pairs gamma_n lies between its two proven ends.

    The winding floor L_n is a lower bound (the homogenized winding is
    monotone), and the endpoint certificate accepts every power p with
    p maslov(X) - n maslov(Y) >= pi dim, so gamma_n <= ceil((n maslov(Y) +
    pi dim) / maslov(X)).  The pairs commute or not, in Sp(4) and Sp(6), and
    their speed profiles are not proportional, where the canonical
    certificate alone overstates gamma_n.  Two diagonal pairs pin gamma_64.
    """
    worst_low, worst_high = -np.inf, -np.inf
    for i in range(8):
        rng = np.random.default_rng([seed, 12, i])
        x, y = _unitary_staircase_pair(rng, 2 + i % 2, i % 4 < 2)
        mx, my = maslov.maslov_index(x).value, maslov.maslov_index(y).value
        tops = [int(np.ceil((n * my + np.pi * x.dim) / mx)) for n in UNITARY_STAIRCASE_NS]
        est = growth.growth_estimate(x, y, ns=UNITARY_STAIRCASE_NS, p_max=max(tops))
        for gamma_n, floor, top in zip(est.gamma_ns, est.floors, tops):
            if gamma_n is None:
                return CriterionResult("C12", "unitary staircase between its ends", False,
                                       {"failure": f"no certified power for pair {i}"})
            worst_low = max(worst_low, floor - gamma_n)
            worst_high = max(worst_high, gamma_n - top)
    t = gen.uniform_times(DIAGONAL_SAMPLES)
    pinned = []
    for a, b, want in DIAGONAL_STAIRCASES:
        x, y = (gen.diagonal_unitary_path(2 * np.pi * np.outer(t, speeds), t)
                for speeds in (a, b))
        pinned.append(growth.gamma_n_bruteforce(x, y, 64, 2 * want) == want)
    passed = worst_low <= 0 and worst_high <= 0 and all(pinned)
    return CriterionResult("C12", "unitary staircase between its ends", passed,
                           {"worst_below_floor": int(worst_low),
                            "worst_above_top": int(worst_high),
                            "diagonal_pins": f"{sum(pinned)}/{len(pinned)}"})


# ---------------------------------------------------------------------

CRITERIA = {
    "C1": criterion_rotation_loops,
    "C2": criterion_trace_formula,
    "C3": criterion_positive_synthesis,
    "C4": criterion_redistribution,
    "C5": criterion_growth_staircase,
    "C6": criterion_line_isometry,
    "C7": criterion_homogenization_defect,
    "C8": criterion_quant_growth,
    "C9": criterion_rotation_distance,
    "C10": criterion_embedding_isometry,
    "C11": criterion_calabi_weinstein,
    "C12": criterion_unitary_staircase,
}

SUITES = {
    "linear": ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C12"),
    "quant": ("C8", "C9", "C10", "C11"),
    "all": tuple(CRITERIA),
}


def run_criterion(cid: str, seed: int = DEFAULT_SEED) -> CriterionResult:
    return CRITERIA[cid](seed)


def run_suite(suite: str = "all", seed: int = DEFAULT_SEED, report=None) -> list[CriterionResult]:
    results = []
    for cid in SUITES[suite]:
        result = run_criterion(cid, seed)
        if report is not None:
            report(result.summary())
        results.append(result)
    return results
