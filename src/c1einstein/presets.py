"""Shipped initial guesses for the shooting unknowns, all in the lambda = 3
gauge.  Vectors are ordered (left free params, right free params, T) as in
ShootingProblem.unknown_names.  Values for the symmetric-space cases come
from the closed forms; the Page values were located by a symmetric-midpoint
search and the Hitchin k = 3 values by a self-dual reduction, each polished
by the full solver.
"""

import numpy as np

__all__ = ["initial_guess", "scan_box"]

_S2 = np.sqrt(2.0)
_S3 = np.sqrt(3.0)
_S5 = np.sqrt(5.0)

_GUESSES = {
    "su2_s4": [-1 / 6, -1 / 6, -1 / 6, -1 / 6, np.pi],
    "so3_s4": [2 * _S3, -2.0, 2 * _S3, 2.0, np.pi / 3],
    "su2_cp2": [-1 / 12, -1 / 12, _S2, _S2 / 96, np.pi * _S2 / 2],
    "so3_cp2": [2 * _S2, -2 * _S2, 2.0, -_S2, np.pi * _S2 / 4],
    "so3_s2xs2": [2 * _S2 / _S3, 0.0, 2 * _S2 / _S3, -1.5 * _S2 / _S3, np.pi / np.sqrt(6.0)],
    # Page: symmetric circle ends, f2 = f3; located by midpoint search
    "su2_cp2bar": [1.0702954240429317, -0.14024643696868358,
                   1.0702954240429317, -0.14024643696868358,
                   1.8851559942615306],
    ("so3_hitchin", 1): [2 * _S3, -2.0, 2 * _S3, 2.0, np.pi / 3],
    ("so3_hitchin", 2): [2.0, -_S2, 2 * _S2, 0.75 * _S2, np.pi * _S2 / 4],
    # k = 3: end data located by a self-dual reduction and polished to the
    # closed forms h^2 = 20 - 8 sqrt 5, c = 1 - sqrt 5, q^2 = 20/3, w = 3/5;
    # T has no evident closed form and ships as the converged value
    ("so3_hitchin", 3): [2.0 * np.sqrt(5.0 - 2.0 * _S5), 1.0 - _S5,
                         np.sqrt(20.0 / 3.0), 0.6, 1.1610341182282435],
}

# relative width of the coarse scan window around each guess (CLI scan)
_BOX_WIDTH = 0.3


def initial_guess(case_id, k=0):
    key = (case_id, k) if case_id == "so3_hitchin" else case_id
    try:
        return np.array(_GUESSES[key], dtype=float)
    except KeyError:
        raise ValueError(f"no shipped guess for diagram {case_id!r} (k={k})") from None


def scan_box(case_id, k=0, width=None, n=3):
    """Grid of unknown vectors spanning a box around the shipped guess."""
    g = initial_guess(case_id, k)
    w = _BOX_WIDTH if width is None else width
    axes = [np.linspace(v * (1 - w), v * (1 + w), n) if v != 0.0
            else np.linspace(-w, w, n) for v in g]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)
