"""Dense symmetric spectral machinery for role-lift diagnostics.

The dense shifts come from their owners: the caller hands the original
graph's `Graph.shift` to `observed_side`, and `srl_report` reads
`RewiredGraph.shift` (both built by `graph.normalized_shift`, re-exported
here); `role_basis` is filled from the partition's labels. Everything
after is 64-bit dense linear algebra at desk scale. The central
quantity is the spectral role lift: project the normalized shifts of the
original and the augmented graph onto the (rotated) role basis, form one
2x2 symmetric matrix per role direction, and measure how much its top
eigenvalue exceeds the role's response on the original graph. Label
energies in the role subspace weight the per-role contributions.

The lift has two sides. The observed side (`observed_side`) reads only
S_obs and the rewiring's partition: the rotated basis c, each role's
response c_j' S_obs c_j and the restriction c' S_obs c. It keeps the
`RewiredGraph` it was read for, so `srl_report` lifts exactly the blocks
that rewiring was built on, reading only the rewiring's shift. A caller
that reads every observed side before any rewired shift is built, and
then releases S_obs, never holds S_obs (n x n) and a rewired shift
((n+k) x (n+k)) at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import EmptyLabelsError
from .graph import fixed, normalized_shift, require_symmetric, write_table
from .partition import Partition
from .rewire import RewiredGraph

__all__ = [
    "normalized_shift",
    "role_basis",
    "symmetric_eig",
    "rotate_basis",
    "ObservedSide",
    "observed_side",
    "per_role_lift",
    "role_energies",
    "commutator_norm",
    "bound_error",
    "SrlReport",
    "srl_report",
    "dump_srl_csv",
]

_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


# ---------------------------------------------------------------------------
# Bases
# ---------------------------------------------------------------------------

def role_basis(partition: Partition) -> np.ndarray:
    """Column-orthonormalized block indicator: the dense membership
    indicator R with column j scaled by 1/sqrt(|B_j|)."""
    basis = np.zeros((partition.num_nodes, partition.k))
    scale = 1.0 / np.sqrt(partition.block_sizes())
    basis[np.arange(partition.num_nodes), partition.block_of] = scale[partition.block_of]
    return basis


def symmetric_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Pivots run row-major over the strict upper triangle with a fixed
    order, so results are bit-deterministic for identical input. Columns
    come back sorted by ascending eigenvalue, each flipped so its first
    non-negligible component is positive.

    The matrix is solved as its upper triangle mirrored onto the lower
    one: an exactly symmetric input is taken as is, and a near-symmetric
    one (within `graph.require_symmetric`'s tolerance) as that mirror. Exact
    symmetry then holds after every rotation, because the column update
    c*a_jp - s*a_jq of an entry outside the 2x2 pivot block is the row
    update c*a_pj - s*a_qj of its mirror. So each pivot rotates rows
    only: one rotation of rows p and q of the n x 2n work array
    [A | V^T] updates A's rows and V's columns, the new rows are copied
    into A's columns, and the pivot block is redone as the column-then-
    row sequence computes it. Every entry gets the products and sums of
    the two-sided rotation in the same order, without fused multiply-adds,
    so the bits are those of rotating columns, then rows, then V.
    """
    a = np.array(m, dtype=float)
    require_symmetric(a, "matrix")
    n = a.shape[0]
    a = np.where(np.tri(n, k=-1, dtype=bool), a.T, a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise ValueError("matrix's Frobenius norm overflows")
    b = np.hstack([a, np.eye(n)])
    a = b[:, :n]
    if n > 1 and norm > 0.0:
        rows = list(b)
        heads = [row[:n] for row in rows]
        cols = [b[:, j] for j in range(n)]
        c_bp, s_bq = np.empty(2 * n), np.empty(2 * n)
        for _ in range(_JACOBI_MAX_SWEEPS):
            off = np.linalg.norm(a - np.diag(np.diag(a)))
            if off <= _JACOBI_TOL * norm:
                break
            for p in range(n - 1):
                row_p = rows[p]
                for q in range(p + 1, n):
                    apq = b.item(p, q)
                    if abs(apq) <= 1e-300:
                        continue
                    app, aqq = b.item(p, p), b.item(q, q)
                    theta = (aqq - app) / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)) \
                        if theta != 0.0 else 1.0
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    # The pivot block after the column rotation.
                    cpp, cqp = c * app - s * apq, c * apq - s * aqq
                    cpq, cqq = s * app + c * apq, s * apq + c * aqq
                    # Rows p, q <- (c b_p - s b_q, s b_p + c b_q), in place.
                    row_q = rows[q]
                    np.multiply(row_p, c, out=c_bp)
                    np.multiply(row_q, s, out=s_bq)
                    np.multiply(row_q, c, out=row_q)
                    np.multiply(row_p, s, out=row_p)
                    np.add(row_q, row_p, out=row_q)
                    np.subtract(c_bp, s_bq, out=row_p)
                    # The pivot block after the row rotation, then the
                    # new rows mirrored into A's columns.
                    row_p[p] = c * cpp - s * cqp
                    row_q[q] = s * cpq + c * cqq
                    row_p[q] = row_q[p] = 0.0
                    cols[p][:] = heads[p]
                    cols[q][:] = heads[q]
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = np.ascontiguousarray(b[order, n:].T)
    big = np.abs(v) > 1e-12
    first = big & (np.cumsum(big, axis=0) == 1)     # each column's first big entry
    np.negative(v, out=v, where=(first & (v < 0)).any(axis=0))
    return w, v


def rotate_basis(c: np.ndarray, s_obs: np.ndarray) -> np.ndarray:
    """Rotate the role basis so the restriction of s_obs becomes diagonal."""
    t = c.T @ s_obs @ c
    t = (t + t.T) / 2.0
    _, v = symmetric_eig(t)
    return c @ v


# ---------------------------------------------------------------------------
# The observed side and the per-role lift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservedSide:
    """What the lift of `rewired` reads of the original shift S_obs: the
    rotated role basis c (n x k) of the rewiring's partition, each role's
    response mu_obs[j] = c_j' S_obs c_j, and the restriction
    t_obs = c' S_obs c."""

    rewired: RewiredGraph
    c: np.ndarray
    mu_obs: np.ndarray
    t_obs: np.ndarray


def observed_side(rewired: RewiredGraph, s_obs: np.ndarray) -> ObservedSide:
    """The observed side of the lift of `rewired`, on s_obs, the shift of
    the rewiring's original graph."""
    c = rotate_basis(role_basis(rewired.partition), s_obs)
    mu_obs = np.array([c[:, j] @ s_obs @ c[:, j] for j in range(c.shape[1])])
    return ObservedSide(rewired, c, mu_obs, c.T @ s_obs @ c)


def per_role_lift(
    c_j: np.ndarray,
    mu_obs: float,
    s_oo: np.ndarray,
    s_vo: np.ndarray,
    s_vv: np.ndarray,
) -> tuple[float, float, float, float, float, float]:
    """Lifted response of one role direction, whose observed response is
    mu_obs.

    Returns (mu_obs, mu_rew, tau, nu, lambda_plus, delta). The coupling
    tau is the norm of the virtual-block image of c_j; below 1e-12 the
    virtual branch is dropped and lambda_plus falls back to mu_rew.
    """
    mu_rew = float(c_j @ s_oo @ c_j)
    t_vec = s_vo @ c_j
    tau = float(np.linalg.norm(t_vec))
    if tau < 1e-12:
        nu = 0.0
        lam_plus = mu_rew
    else:
        v_hat = t_vec / tau
        nu = float(v_hat @ s_vv @ v_hat)
        half_gap = (mu_rew - nu) / 2.0
        lam_plus = (mu_rew + nu) / 2.0 + np.sqrt(half_gap * half_gap + tau * tau)
    return mu_obs, mu_rew, tau, nu, float(lam_plus), float(lam_plus - mu_obs)


def role_energies(c: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Energy split of a label matrix over the role subspace.

    Returns (rho, omega, e_tot): rho is the fraction of squared label
    mass inside span(c), omega the per-role shares of that mass (all zero
    when the role energy vanishes), e_tot the total squared mass.
    """
    e_tot = float((y * y).sum())
    if e_tot == 0.0:
        raise EmptyLabelsError("label matrix carries zero energy")
    beta = c.T @ y
    role_energy = float((beta * beta).sum())
    rho = role_energy / e_tot
    if role_energy > 0.0:
        omega = (beta * beta).sum(axis=1) / role_energy
    else:
        omega = np.zeros(c.shape[1])
    return rho, omega, e_tot


def commutator_norm(m1: np.ndarray, m2: np.ndarray) -> float:
    """Frobenius norm of the commutator of two restricted shifts."""
    return float(np.linalg.norm(m1 @ m2 - m2 @ m1))


# ---------------------------------------------------------------------------
# Report assembly and the error-bound constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SrlReport:
    """Per-role spectral quantities plus the diagnostics of the whole lift."""

    mu_obs: np.ndarray
    mu_rewired: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    lambda_plus: np.ndarray
    delta: np.ndarray
    omega: np.ndarray
    rho: float
    srl: float
    e_tot: float
    commutator_norm: float
    kappa_max: float
    bound_rhs: float
    negative_delta_count: int

    @property
    def k(self) -> int:
        return len(self.delta)


def _filter_and_derivative(h_degree: int, s: float) -> tuple[float, float]:
    return s ** h_degree, h_degree * s ** (h_degree - 1)


def bound_error(
    mu_obs: np.ndarray,
    lambda_plus: np.ndarray,
    e_tot: float,
    srl: float,
    h_degree: int,
) -> tuple[float, float]:
    """Constants of the error bound for the filter s^h_degree.

    kappa_max is the worst endpoint-derivative ratio over the roles whose
    lifted response is alive (|h(lambda_plus)| >= 1e-12). Returns
    (kappa_max, kappa_max * e_tot * srl).
    """
    kappa_max = 0.0
    for j in range(len(lambda_plus)):
        h_lam, d_lam = _filter_and_derivative(h_degree, float(lambda_plus[j]))
        if abs(h_lam) < 1e-12:
            continue
        d_obs = _filter_and_derivative(h_degree, float(mu_obs[j]))[1]
        kappa_max = max(kappa_max, max(abs(d_obs), abs(d_lam)) ** 2 / (h_lam * h_lam))
    return kappa_max, kappa_max * e_tot * srl


def srl_report(observed: ObservedSide, y: np.ndarray, h_degree: int = 2) -> SrlReport:
    """Full spectral-role-lift pipeline for the rewiring of one observed side.

    Each rotated role direction of the side is lifted through the blocks
    of the rewiring's shift, and the lifts are aggregated with the label
    energies of y (n x C, zero rows for unlabeled nodes).
    """
    n = observed.rewired.origin_count
    if y.shape[0] != n:
        raise ValueError(f"labels have {y.shape[0]} rows, the graph has {n} nodes")
    s_rew = observed.rewired.shift
    s_oo, s_vo, s_vv = s_rew[:n, :n], s_rew[n:, :n], s_rew[n:, n:]

    c = observed.c
    k = c.shape[1]
    lifts = np.array([per_role_lift(c[:, j], observed.mu_obs[j], s_oo, s_vo, s_vv)
                      for j in range(k)])
    mu_obs, mu_rew, tau, nu, lam_plus, delta = lifts.T

    rho, omega, e_tot = role_energies(c, y)
    srl = rho * float((omega * delta ** 2).sum())

    kappa_max, bound_rhs = bound_error(mu_obs, lam_plus, e_tot, srl, h_degree)
    return SrlReport(
        mu_obs=mu_obs, mu_rewired=mu_rew, tau=tau, nu=nu,
        lambda_plus=lam_plus, delta=delta, omega=omega,
        rho=rho, srl=srl, e_tot=e_tot,
        commutator_norm=commutator_norm(observed.t_obs, c.T @ s_oo @ c),
        kappa_max=kappa_max, bound_rhs=bound_rhs,
        negative_delta_count=int((delta < 0).sum()),
    )


def dump_srl_csv(report: SrlReport, stream: IO[str]) -> None:
    columns = (report.mu_obs, report.mu_rewired, report.tau, report.nu,
               report.lambda_plus, report.delta, report.omega)
    write_table(stream, "role,mu_obs,mu_rawr,tau,nu,lambda_plus,delta,omega",
                zip(map(str, range(report.k)), *(map(fixed, c.tolist()) for c in columns)),
                footer=[("rho", report.rho), ("srl", report.srl),
                        ("commutator_norm", report.commutator_norm),
                        # Dead-role label mass is not computed (ROADMAP item 8).
                        ("kappa0", 0.0), ("kappa_max", report.kappa_max),
                        ("bound_rhs", report.bound_rhs), ("E_tot", report.e_tot)])
