"""Convex divergence generators and their Fenchel conjugates.

Each generator is a convex function ``phi`` on the nonnegative half-line
with ``phi(1) = 0``, so that the induced divergence between discrete
distributions vanishes exactly at equality.  All four supported generators
belong to the Cressie-Read family ``f_k(t) = (t^k - k t + k - 1) / (k (k - 1))``
(KL and Burg as its limits):

================  ============  =====================  ==============================
kind              Cressie-Read  phi(t)                 conjugate phi*(s)
================  ============  =====================  ==============================
chi-square        2 f_2         (t - 1)^2              s + s^2/4 for s >= -2, else -1
Kullback-Leibler  f_1           t log t - t + 1        e^s - 1
Burg entropy      f_0           -log t + t - 1         -log(1 - s) for s < 1
Hellinger         f_{1/2} / 2   (sqrt(t) - 1)^2        s / (1 - s) for s < 1
================  ============  =====================  ==============================

Every fact about a generator lives in one frozen record of the table
``_GENERATORS``: ``phi`` on ``t > 0`` with its value at zero (``+inf`` for
Burg), the conjugate, one function giving the conjugate's first and second
derivatives from shared intermediates, the conjugate's domain bound and the
trainers' overflow cap.  The public functions below, the dual solver and the
trainers read that record and nothing else; the curvature ``phi''(1)`` is
derived from it as ``1 / (phi*)''(0)``.  The record's formulas are written
per kind rather than as one formula in ``k``, because KL and Burg are limits
of it.  Each conjugate and derivative formula is written once with ufunc
``out=`` arguments and takes an optional workspace of two rows shaped like
its argument: the dual solver passes one and makes its passes without
allocating; without one (the pointwise functions below, the trainers) each
ufunc allocates its result, with the same bits.  Adding a generator takes one
enum member, one alias in :meth:`DivergenceKind.from_name` and one record.

Conjugates are taken over t >= 0, which is the relevant domain when the
argument of ``phi`` is a ratio of probability weights.  At and beyond their
domain bound the conjugate and its derivatives return ``+inf`` (a barrier,
never an exception) so that line searches in the dual solvers can treat the
boundary naturally.  The Burg and Hellinger conjugates grow without bound as
``s -> 1``, so there is no finite extension to the closed endpoint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DivergenceKind",
    "phi",
    "phi_conjugate",
    "conjugate_derivative",
    "conjugate_second_derivative",
    "curvature_at_one",
]


class DivergenceKind(enum.Enum):
    """The supported divergence generators."""

    CHI_SQUARE = "chi2"
    KL = "kl"
    BURG = "burg"
    HELLINGER = "hellinger"

    @classmethod
    def from_name(cls, name: str) -> "DivergenceKind":
        """Resolve a (case-insensitive) kind name such as ``"chi2"`` or ``"kl"``."""
        key = name.strip().lower().replace("-", "").replace("_", "")
        aliases = {
            "chi2": cls.CHI_SQUARE,
            "chisquare": cls.CHI_SQUARE,
            "kl": cls.KL,
            "kullbackleibler": cls.KL,
            "burg": cls.BURG,
            "hellinger": cls.HELLINGER,
        }
        if key not in aliases:
            raise ValueError(f"unknown divergence kind: {name!r}")
        return aliases[key]


@dataclass(frozen=True)
class _Generator:
    """One generator's formulas and bounds.

    ``conjugate(s, ws)`` gives ``phi*(s)`` inside the domain.  ``derivatives(u, reduce, ws)``
    gives ``(reduce((phi*)'(u)), reduce((phi*)''(u)))`` there: ``reduce`` is ``np.asarray`` for
    pointwise values and a mean in the dual solver, and gets chi-square's second derivative as
    a boolean mask (half an indicator) to count it; with ``second=False`` the second is None,
    left uncomputed.  Both write into ``ws``, two rows shaped like their argument, or let each
    ufunc allocate when ``ws`` is None; they never write into their argument.
    """

    phi: Callable  # phi(t) for t > 0
    phi_at_zero: float
    conjugate: Callable  # phi*(s) for s < domain
    derivatives: Callable
    domain: float = math.inf  # phi* is finite exactly on s < domain, with a pole at a finite bound
    cap: Optional[float] = None  # trainers treat u >= cap as outside the domain


def _outs(ws):
    """The ``out=`` rows of a table formula: ``ws``, or None twice (each ufunc allocates)."""
    return (None, None) if ws is None else ws


def _mask(row):
    """``row``'s memory as a boolean array of its shape; None (allocate) for no row."""
    return None if row is None else np.ndarray(row.shape, np.bool_, row)


def _chi2_conjugate(s, ws=None):
    out, sq = _outs(ws)
    # on the flat branch s < -2 (and for NaN) fmax gives -2, where s + s^2/4 is exactly -1
    m = np.fmax(s, -2.0, out=out)
    sq = np.divide(np.multiply(m, m, out=sq), 4.0, out=sq)
    return np.add(m, sq, out=out)


def _chi2_derivatives(u, reduce, ws=None, second=True):
    out, flat = _outs(ws)
    d1 = np.maximum(np.add(np.multiply(u, 0.5, out=out), 1.0, out=out), 0.0, out=out)
    return reduce(d1), 0.5 * reduce(np.greater(u, -2.0, out=_mask(flat))) if second else None


def _kl_conjugate(s, ws=None):
    return np.expm1(s, out=_outs(ws)[0])


def _kl_derivatives(u, reduce, ws=None, second=True):
    m = reduce(np.exp(u, out=_outs(ws)[0]))
    return m, m if second else None


def _burg_conjugate(s, ws=None):
    out = _outs(ws)[0]
    return np.negative(np.log1p(np.negative(s, out=out), out=out), out=out)


def _burg_derivatives(u, reduce, ws=None, second=True):
    out, sq = _outs(ws)
    r = np.divide(1.0, np.subtract(1.0, u, out=out), out=out)
    return reduce(r), reduce(np.multiply(r, r, out=sq)) if second else None


def _hellinger_conjugate(s, ws=None):
    out = _outs(ws)[0]
    return np.divide(s, np.subtract(1.0, s, out=out), out=out)


def _hellinger_derivatives(u, reduce, ws=None, second=True):
    out, sq = _outs(ws)
    r = np.divide(1.0, np.subtract(1.0, u, out=out), out=out)
    r2 = np.multiply(r, r, out=sq)
    first = reduce(r2)
    return first, 2.0 * reduce(np.multiply(r2, r, out=out)) if second else None


# the KL cap: beyond u = 500 the exponential conjugate overflows float64 anyway
_GENERATORS = {
    DivergenceKind.CHI_SQUARE: _Generator(
        lambda t: (t - 1.0) ** 2, 1.0, _chi2_conjugate, _chi2_derivatives),
    DivergenceKind.KL: _Generator(
        lambda t: t * np.log(t) - t + 1.0, 1.0, _kl_conjugate, _kl_derivatives, cap=500.0),
    DivergenceKind.BURG: _Generator(
        lambda t: -np.log(t) + t - 1.0, math.inf, _burg_conjugate, _burg_derivatives,
        domain=1.0, cap=1.0 - 1e-12),
    DivergenceKind.HELLINGER: _Generator(
        lambda t: (np.sqrt(t) - 1.0) ** 2, 1.0, _hellinger_conjugate, _hellinger_derivatives,
        domain=1.0, cap=1.0 - 1e-12),
}


def _barrier(kind: DivergenceKind, s, value) -> "float | np.ndarray":
    """``value(generator, s)``, which is ``+inf`` at and beyond the conjugate's domain bound."""
    gen = _GENERATORS[kind]
    arr = np.asarray(s, dtype=float)
    if gen.domain < math.inf:
        # the conjugate and its derivatives have a pole at a finite bound, so
        # clamping there gives +inf at and beyond it
        arr = np.minimum(arr, gen.domain)
    with np.errstate(over="ignore", divide="ignore"):
        out = value(gen, arr)
    return float(out) if np.ndim(s) == 0 else out


def curvature_at_one(kind: DivergenceKind) -> float:
    """Return ``phi''(1) = 1 / (phi*)''(0)``, which maps an ambiguity radius to variance units."""
    return 1.0 / conjugate_second_derivative(kind, 0.0)


def phi(kind: DivergenceKind, t) -> "float | np.ndarray":
    """Evaluate the generator ``phi(t)``.

    Parameters
    ----------
    kind:
        Which generator to evaluate.
    t:
        Nonnegative scalar or array.  ``phi(0)`` is the limit from the right,
        which is ``+inf`` for Burg entropy.

    Raises
    ------
    ValueError
        If ``t`` is negative.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("phi requires t >= 0")
    gen, zero = _GENERATORS[kind], arr == 0
    out = np.where(zero, gen.phi_at_zero, gen.phi(np.where(zero, 1.0, arr)))
    return float(out) if np.ndim(t) == 0 else out


def phi_conjugate(kind: DivergenceKind, s) -> "float | np.ndarray":
    """Evaluate the Fenchel conjugate ``phi*(s) = sup_{t>=0} (s t - phi(t))``.

    Values outside the conjugate's domain (``s >= 1`` for Burg and
    Hellinger) return ``+inf`` rather than raising, so callers can use the
    conjugate as a barrier.
    """
    return _barrier(kind, s, lambda gen, u: gen.conjugate(u))


def conjugate_derivative(kind: DivergenceKind, s) -> "float | np.ndarray":
    """First derivative of the conjugate, ``(phi*)'(s)``.

    Nondecreasing and nonnegative on the conjugate's domain; ``+inf``
    outside it.  For the chi-square generator the derivative is 0 on the
    flat branch ``s < -2``.
    """
    return _barrier(kind, s, lambda gen, u: gen.derivatives(u, np.asarray)[0])


def conjugate_second_derivative(kind: DivergenceKind, s) -> "float | np.ndarray":
    """Second derivative of the conjugate where it is twice differentiable."""
    return _barrier(kind, s, lambda gen, u: gen.derivatives(u, np.asarray)[1])
