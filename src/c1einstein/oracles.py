"""Closed-form diagonal profiles of the known Einstein metrics.

Each oracle returns (f, df) triples as functions of arc length for a fixed
Einstein constant, in the labeling used by the diagram catalog.  They serve as
independent references: integrator accuracy checks, shooting targets, and the
"is this solution one of the symmetric spaces" comparisons.

Profiles are stated at their natural Einstein constant and rescaled on demand:
under f -> c f, t -> c t the constant transforms as lambda -> lambda / c^2.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OracleProfile", "oracle", "ORACLE_IDS"]

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class OracleProfile:
    name: str
    diagram: str
    lam: float
    T: float
    f: Callable  # f(t) -> (3,) array
    df: Callable  # f'(t) -> (3,) array

    def rescaled(self, lam):
        """Homothetic copy with the requested Einstein constant."""
        c = np.sqrt(self.lam / lam)
        base_f, base_df, base_T = self.f, self.df, self.T
        return OracleProfile(
            name=self.name,
            diagram=self.diagram,
            lam=lam,
            T=c * base_T,
            f=lambda t: c * base_f(np.asarray(t) / c),
            df=lambda t: base_df(np.asarray(t) / c),
        )


def _stack(*rows):
    return np.stack(np.broadcast_arrays(*rows), axis=-1)


# -- round S^4, SU(2) suspension action: f_i = sin t on the unit sphere -------

def _round_su2_f(t):
    s = np.sin(t)
    return _stack(s, s, s)


def _round_su2_df(t):
    c = np.cos(t)
    return _stack(c, c, c)


# -- round S^4, SO(3) conjugation action on trace-free symmetric matrices -----
# Killing-field lengths along a diagonal geodesic of the unit sphere in
# Sym_0^2(R^3); sigma_1 collapses at t=0, sigma_2 at T = pi/3.

def _round_so3_f(t):
    return _stack(
        4.0 * np.sin(t),
        4.0 * np.sin(np.pi / 3.0 - t),
        4.0 * np.sin(np.pi / 3.0 + t),
    )


def _round_so3_df(t):
    return _stack(
        4.0 * np.cos(t),
        -4.0 * np.cos(np.pi / 3.0 - t),
        4.0 * np.cos(np.pi / 3.0 + t),
    )


# -- Fubini-Study, SU(2) action on P(C + C^2), lambda = 6 ---------------------
# Berger-sphere profile: f_1 = f_2 = sin t, f_3 = sin t cos t, T = pi/2.

def _fs_su2_f(t):
    s, c = np.sin(t), np.cos(t)
    return _stack(s, s, s * c)


def _fs_su2_df(t):
    s, c = np.sin(t), np.cos(t)
    return _stack(c, c, c * c - s * s)


# -- Fubini-Study, SO(3) action on CP^2 by real matrices, lambda = 6 ----------
# Killing-field lengths along [cos t : i sin t : 0]; sigma_1 collapses at the
# totally real RP^2 (t=0), sigma_3 at the conic (T = pi/4).

def _fs_so3_f(t):
    return _stack(2.0 * np.sin(t), 2.0 * np.cos(t), 2.0 * np.cos(2.0 * t))


def _fs_so3_df(t):
    return _stack(2.0 * np.cos(t), -2.0 * np.sin(t), -4.0 * np.sin(2.0 * t))


# -- S^2 x S^2 product of unit round spheres, diagonal SO(3), lambda = 1 ------
# sigma_3 collapses at t=0, sigma_1 at T = pi/sqrt(2).

_R8 = np.sqrt(8.0)


def _prod_f(t):
    x = np.asarray(t) / SQRT2
    return _stack(_R8 * np.cos(x), _R8 + 0.0 * x, _R8 * np.sin(x))


def _prod_df(t):
    x = np.asarray(t) / SQRT2
    return _stack(-2.0 * np.sin(x), 0.0 * x, 2.0 * np.cos(x))


# -- Hitchin k=2: Fubini-Study modulo complex conjugation, lambda = 6 ---------
# Smooth RP^2 end at t=0 (sigma_1, slope 4), orbifold RP^2 end at T = pi/4
# (sigma_2, slope 4/k = 2).

def _hitchin2_f(t):
    return _stack(
        2.0 * np.sin(2.0 * t),
        SQRT2 * (np.cos(t) - np.sin(t)),
        SQRT2 * (np.cos(t) + np.sin(t)),
    )


def _hitchin2_df(t):
    return _stack(
        4.0 * np.cos(2.0 * t),
        SQRT2 * (-np.sin(t) - np.cos(t)),
        SQRT2 * (-np.sin(t) + np.cos(t)),
    )


_ORACLES = {
    "round_su2": OracleProfile("round_su2", "su2_s4", 3.0, np.pi, _round_su2_f, _round_su2_df),
    "round_so3": OracleProfile("round_so3", "so3_s4", 3.0, np.pi / 3.0, _round_so3_f, _round_so3_df),
    "fs_su2": OracleProfile("fs_su2", "su2_cp2", 6.0, np.pi / 2.0, _fs_su2_f, _fs_su2_df),
    "fs_so3": OracleProfile("fs_so3", "so3_cp2", 6.0, np.pi / 4.0, _fs_so3_f, _fs_so3_df),
    "product_s2xs2": OracleProfile(
        "product_s2xs2", "so3_s2xs2", 1.0, np.pi / SQRT2, _prod_f, _prod_df
    ),
    "hitchin_k2": OracleProfile(
        "hitchin_k2", "so3_hitchin", 6.0, np.pi / 4.0, _hitchin2_f, _hitchin2_df
    ),
}

ORACLE_IDS = tuple(sorted(_ORACLES))


def oracle(name, lam=None) -> OracleProfile:
    """Look up a closed-form profile, optionally rescaled to the given lambda."""
    prof = _ORACLES[name]
    if lam is not None and lam != prof.lam:
        prof = prof.rescaled(lam)
    return prof
