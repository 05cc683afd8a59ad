"""Truncated kernels and convergence of their minimal speeds.

Cutting the kernel at a finite right endpoint R makes its transform entire,
so every truncated level has an interior minimizer, while the lost mass
lowers the carrying capacity to theta_R. As R grows the truncated speed
curves increase pointwise to the full one and their minima climb to c_star.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .dispersion import _as_pair, g_function, minimal_speed
from .errors import AssumptionFailure, UsageError
from .kernels import KernelPair, Params, Truncated


def truncate(kernel, R: float) -> Truncated:
    """Kernel multiplied by the indicator of (-inf, R); mass not rescaled."""
    return Truncated(kernel, R)


def theta_r(params: Params, a_plus_mass: float, a_minus_mass: float = 1.0) -> float:
    """Carrying capacity of the truncated system,
    (kappa_plus A+_R - m) / (kappa_nonlocal A-_R + kappa_local)."""
    top = params.kappa_plus * a_plus_mass - params.m
    if top <= 0.0:
        raise AssumptionFailure(
            "Q1", f"truncated birth rate kappa_plus*A_R = "
            f"{params.kappa_plus * a_plus_mass!r} does not exceed m = {params.m!r}")
    return top / (params.kappa_nonlocal * a_minus_mass + params.kappa_local)


@dataclass(frozen=True)
class TruncationTrace:
    radii: tuple
    a_plus_mass: tuple
    a_minus_mass: tuple
    theta_r: tuple
    lambda_star: tuple
    c_star: tuple
    c_star_limit: float
    lambda_lower: float

    @property
    def gaps(self) -> tuple:
        return tuple(self.c_star_limit - c for c in self.c_star)

    def rows(self):
        """CSV rows (R, A_plus, theta_R, lambda_star_n, c_star_n, gap)."""
        return [(self.radii[i], self.a_plus_mass[i], self.theta_r[i],
                 self.lambda_star[i], self.c_star[i], self.gaps[i])
                for i in range(len(self.radii))]

    def to_dict(self) -> dict:
        return {**asdict(self), "gaps": list(self.gaps)}


def c_star_sequence(kernel_or_pair, params: Params, radii) -> TruncationTrace:
    """Minimal speeds of the truncated problems along increasing radii.

    Levels are independent of one another; each runs the same dispersion
    pipeline on the truncated pair. The trace also carries the untruncated
    c_star and the explicit lower barrier for the truncated minimizers,
    lambda_1 = (kappa_plus A+_{R_1} - m) / (kappa_plus first-abs-moment + c_star).
    """
    pair = _as_pair(kernel_or_pair)
    radii = [float(R) for R in radii]
    if len(radii) == 0:
        raise UsageError("need at least one truncation radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise UsageError("truncation radii must be strictly increasing")

    full = minimal_speed(pair, params)
    masses_p, masses_m, thetas, lams, speeds = [], [], [], [], []
    for R in radii:
        tp = truncate(pair.a_plus, R)
        tm = truncate(pair.a_minus, R)
        masses_p.append(tp.mass)
        masses_m.append(tm.mass)
        thetas.append(theta_r(params, masses_p[-1], masses_m[-1]))
        rep = minimal_speed(KernelPair(tp, tm), params)
        lams.append(rep.lambda_star)
        speeds.append(rep.c_star)

    m_abs = pair.a_plus.moment_first_abs()
    lam_lower = (params.kappa_plus * masses_p[0] - params.m) / \
        (params.kappa_plus * m_abs + abs(full.c_star))
    return TruncationTrace(
        radii=tuple(radii), a_plus_mass=tuple(masses_p),
        a_minus_mass=tuple(masses_m), theta_r=tuple(thetas),
        lambda_star=tuple(lams), c_star=tuple(speeds),
        c_star_limit=full.c_star, lambda_lower=lam_lower)


def truncated_g(kernel, params: Params, R: float, lam: float) -> float:
    """Speed curve of the truncated kernel at lam; used to check that the
    curves increase pointwise with R toward the full one."""
    return g_function(truncate(kernel, R), params, lam)
