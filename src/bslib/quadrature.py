"""The one integrator of bslib: rules on array integrands.

An integrand takes an ndarray of nodes and returns its values, float or
complex, in the same shape.  `integrate_panels` returns an error
estimate beside every panel integral, which certified bounds add as slack.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["integrate_panels", "leggauss", "gauss_legendre"]


# QUADPACK's qk21 (Piessens et al. 1983): the 21-point Kronrod rule on
# [-1, 1] and its embedded 10-point Gauss rule, exact for polynomials of
# degree 31 and 19.  Nodes run from -1 to 1; the Gauss weights are zero on
# the Kronrod-only nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525793155, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
])
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_KRONROD_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS_WEIGHTS = np.concatenate([_WG, _WG[-2::-1]])


@functools.lru_cache(maxsize=None)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(a: ArrayLike, b: ArrayLike, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [a, b], or on every
    panel [a_i, b_i] of arrays a and b, one panel after the other."""
    x, w = leggauss(n)
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    return (0.5 * (b - a) * x + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * w).ravel()


# Pieces are bisected until each error estimate is below _PANEL_TOL (or at
# its round-off floor), so that the estimates added as slack are far below
# the bound and barely depend on how the panels were cut: the smoothing
# bound at one Omega is the same, to about 1e-13 relative, alone or within
# a sweep.  The tolerance is per piece and not split between halves: near
# zeta = 0, |phi - psi| is rounding noise whose estimate shrinks only in
# proportion to the width, so a split tolerance would never be met.
_PANEL_TOL = 1e-15
_MAX_BISECTIONS = 30
# Panels integrated together.  At 512 panels a first round's (panels x 21)
# arrays are 86 KB, under glibc's default 128 KiB mmap threshold, so they
# are recycled from the heap; larger ones are mapped, faulted in page by
# page and unmapped on every call.  Per-panel results do not depend on the
# chunk size.
_CHUNK = 1 << 9
_MAX_PIECES = 1 << 12  # open pieces of one chunk; bounds the memory in use


def _gk21(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """qk21 on every panel [a_i, b_i] with one call of the array function f.

    Returns the Kronrod integrals, QUADPACK's error estimates (the
    Kronrod-Gauss difference scaled by (200 |K - G| / resasc)^1.5, and at
    least its round-off floor) and that floor, 50 machine epsilons times
    the integral of |f|.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    y = f(c[:, None] + h[:, None] * _GK_NODES)
    resk = y @ _GK_KRONROD_WEIGHTS
    err = np.abs(resk - y @ _GK_GAUSS_WEIGHTS) * h
    resasc = np.abs(y - 0.5 * resk[:, None]) @ _GK_KRONROD_WEIGHTS * h
    floor = 50.0 * np.finfo(float).eps * (np.abs(y) @ _GK_KRONROD_WEIGHTS * h)
    ok = (resasc != 0) & (err != 0)
    err[ok] = resasc[ok] * np.minimum(1.0, (200.0 * err[ok] / resasc[ok]) ** 1.5)
    return resk * h, np.maximum(err, floor), floor


def integrate_panels(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Integral of the array function f over each panel [a_i, b_i] and its error estimate.

    The pieces of _CHUNK panels at a time are integrated together by
    `_gk21`; a piece whose estimate exceeds both _PANEL_TOL and its
    round-off floor is bisected.  After _MAX_BISECTIONS rounds, or once
    more than _MAX_PIECES pieces would be open, the open pieces are
    accepted as they are; their estimates still count in the returned
    error.  The values are complex when f's are.
    """
    P = a.size
    val, err = np.zeros(P), np.zeros(P)
    for start in range(0, P, _CHUNK):
        lo, hi = a[start : start + _CHUNK], b[start : start + _CHUNK]
        owner = np.arange(start, start + lo.size)
        for depth in range(_MAX_BISECTIONS + 1):
            r, e, floor = _gk21(f, lo, hi)
            done = e <= np.maximum(_PANEL_TOL, floor)
            if depth == _MAX_BISECTIONS or 2 * np.count_nonzero(~done) > _MAX_PIECES:
                done[:] = True
            # one round's sums first, in piece order, then into the totals
            part = np.zeros(P, dtype=r.dtype)
            np.add.at(part, owner[done], r[done])
            val = val + part
            err += np.bincount(owner[done], e[done], P)
            if done.all():
                break
            lo, hi, owner = lo[~done], hi[~done], owner[~done]
            mid = 0.5 * (lo + hi)
            lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)
    return val, err
