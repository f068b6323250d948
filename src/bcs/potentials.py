"""Radial potential profiles in d = 1, 2, 3 and the spherically reduced
quantities built from them: Fourier transforms, the Fermi-surface coupling
e_mu, and its angular-momentum decomposition.

A kind's dataclass fields are its only declaration of its parameters, and
its constructor normalizes them: d (an integer from 1 to 3) to int, other
reals to float, table samples to float tuples; booleans and strings raise
TypeError.  So potentials hash and compare by value however they are built.

Every radial transform of V is a dot product with the masses V(r) w r^(d-1)
of one fixed Gauss-Legendre rule on [0, cutoff], whose panels radial_edges
lays out to break at V.breakpoints and to resolve the integrand's highest
frequency."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .quad import _subdivide, gauss_panels
from .special import _j0, bessel_squares, j_d

# Fraction of its peak scale that |V| stays below beyond cutoff_radius().
_CUTOFF_EPS = 1e-16


class ExtrapolationWarning(UserWarning):
    """A tabulated potential was evaluated beyond its last node."""


def _real(name: str, x) -> float:
    """x as a Python float; TypeError unless it is a real number and no bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class RadialPotential:
    """Base type: a rotation-invariant potential V(|x|) on R^d.  Each kind
    gives value(r); cutoff_radius(), beyond which |V| stays below
    _CUTOFF_EPS of its peak scale; range_scale, a decay length that sizes
    momentum cutoffs; and is_nonnegative()."""

    d: int

    def __post_init__(self):
        if isinstance(self.d, bool) or not isinstance(self.d, numbers.Integral):
            raise TypeError(f"d must be an integer, got {self.d!r}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def breakpoints(self) -> tuple:
        """Radii where the profile or one of its derivatives jumps; the
        panels of a fixed rule break there."""
        return ()


@dataclass(frozen=True)
class _AmplitudeLength(RadialPotential):
    """Base of the closed-form kinds: an amplitude a, then one length
    field, the last one each kind declares."""

    a: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        length = fields(self)[-1].name
        for name in ("a", length):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not (0.0 < getattr(self, length) < math.inf and math.isfinite(self.a)):
            raise ValueError(f"need finite {length} > 0 and finite amplitude")

    @property
    def range_scale(self):
        return getattr(self, fields(self)[-1].name)

    def is_nonnegative(self):
        return self.a >= 0


@dataclass(frozen=True)
class GaussianPotential(_AmplitudeLength):
    ell: float = 1.0

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = self.a * np.exp(-((r / self.ell) ** 2))
        return out if out.ndim else float(out)

    def cutoff_radius(self):
        return self.ell * math.sqrt(math.log(1.0 / _CUTOFF_EPS))


@dataclass(frozen=True)
class ExponentialPotential(_AmplitudeLength):
    ell: float = 1.0

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = self.a * np.exp(-r / self.ell)
        return out if out.ndim else float(out)

    def cutoff_radius(self):
        return self.ell * math.log(1.0 / _CUTOFF_EPS)


@dataclass(frozen=True)
class StepPotential(_AmplitudeLength):
    """a on [0, R], zero outside."""

    R: float = 1.0

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self.R, self.a, 0.0)
        return out if out.ndim else float(out)

    def cutoff_radius(self):
        return self.R

    @property
    def breakpoints(self):
        return (self.R,)


@dataclass(frozen=True)
class TabulatedPotential(RadialPotential):
    """Monotone-cubic interpolant through (r_i, v_i); zero beyond the last node.

    The samples must already have decayed at the last node
    (|v_last| <= 1e-12 * max|v|), otherwise the zero extension would
    misrepresent the tail.
    """

    r_values: tuple = ()
    v_values: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        for name in ("r_values", "v_values"):
            label = f"every sample of {name}"
            object.__setattr__(self, name, tuple(_real(label, x) for x in getattr(self, name)))
        r, v = np.asarray(self.r_values), np.asarray(self.v_values)
        if r.shape != v.shape or len(r) < 4:
            raise ValueError("need matching r/v samples, at least 4 points")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ValueError("r and v samples must be finite")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise ValueError("r samples must be nonnegative and strictly increasing")
        vmax = float(np.max(np.abs(v)))
        if vmax == 0.0:
            raise ValueError("potential is identically zero")
        if abs(v[-1]) > 1e-12 * vmax:
            raise ValueError("tabulated potential has not decayed at its last node")
        from scipy.interpolate import PchipInterpolator
        object.__setattr__(self, "_interp", PchipInterpolator(r, v, extrapolate=False))

    def value(self, r):
        r = np.asarray(r, dtype=float)
        r_last = self.r_values[-1]
        beyond = r > r_last
        if beyond.any():
            warnings.warn(
                f"evaluating tabulated potential beyond its last node r={r_last}; using 0",
                ExtrapolationWarning, stacklevel=2)
        out = self._interp(r.clip(self.r_values[0], r_last))
        out[beyond] = 0.0
        return out if out.ndim else float(out)

    def cutoff_radius(self):
        return self.r_values[-1]

    @property
    def range_scale(self):
        r, v = np.asarray(self.r_values), np.abs(self.v_values)
        # half-maximum crossing as a rough decay length
        peak = v.max()
        below = np.nonzero(v <= 0.5 * peak)[0]
        after_peak = below[below >= int(np.argmax(v))]
        i = int(after_peak[0]) if len(after_peak) else len(r) - 1
        return float(max(r[i], r[-1] / 8.0))

    @property
    def breakpoints(self):
        return self.r_values[1:-1]

    def is_nonnegative(self):
        return min(self.v_values) >= -1e-12 * max(map(abs, self.v_values))


_KINDS = {"gaussian": GaussianPotential, "exponential": ExponentialPotential,
          "step": StepPotential, "tabulated": TabulatedPotential}


def from_config(cfg: dict) -> RadialPotential:
    """Build a potential from a JSON-style dict with a "kind" tag; every
    other key is passed unchanged to the kind's constructor."""
    if "kind" not in cfg:
        raise ValueError("potential config needs a 'kind' field")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown potential kind {kind!r}; choose from {sorted(_KINDS)}")
    cls = _KINDS[kind]
    unknown = set(cfg) - {f.name for f in fields(cls)} - {"kind"}
    if unknown:
        raise ValueError(f"unknown potential fields for kind {kind!r}: {sorted(unknown)}")
    if "d" not in cfg:
        raise ValueError("potential config needs the dimension 'd'")
    return cls(**{k: v for k, v in cfg.items() if k != "kind"})


def to_config(V: RadialPotential) -> dict:
    """Inverse of from_config: the kind tag and every field, tuples as lists."""
    for kind, cls in _KINDS.items():
        if type(V) is cls:
            cfg = {"kind": kind}
            for f in fields(V):
                val = getattr(V, f.name)
                cfg[f.name] = list(val) if isinstance(val, tuple) else val
            return cfg
    raise ValueError(f"unregistered potential type {type(V).__name__}")


def _radial_panels(V: RadialPotential, k_max: float):
    """Knots of radial_edges and the panel count between each two, without the edges."""
    rc = V.cutoff_radius()
    h = min(V.range_scale, 8.0 / k_max) if k_max > 0.0 else V.range_scale
    knots = np.array([0.0, *sorted(b for b in V.breakpoints if 0.0 < b < rc), rc])
    return knots, np.ceil(np.diff(knots) / h)


def radial_edges(V: RadialPotential, k_max: float) -> np.ndarray:
    """Panel edges on [0, cutoff] that break at V.breakpoints and are at most
    range_scale and 8 / k_max wide, so their count grows like k_max * cutoff.
    A 16-node panel then integrates V(r) cos(k r) to machine precision for
    every k up to k_max."""
    return _subdivide(*_radial_panels(V, k_max))


def _radial_measure(V: RadialPotential, k_max: float, n: int = 16):
    """Nodes r and masses m = V(r) w r^(d-1) of the n-point rule on
    radial_edges(V, k_max): the integral of V(r) f(r) r^(d-1) over
    [0, cutoff] is m @ f(r) for every f of frequency up to k_max."""
    r, w = gauss_panels(radial_edges(V, k_max), n)
    return r, V.value(r) * w * r ** (V.d - 1)


def _radial_waves(V: RadialPotential, k: np.ndarray, k_max: float):
    """(J, m): J[i, l] = j_d(k_i r_l; 1) for a 1-d k >= 0 on the rule of
    _radial_measure(V, k_max), and its masses m.  j_d is written in place
    over the product k r, so J is the one array of its size: cos in d = 1,
    _j0 in d = 2, and in d = 3 sin divided by k and then by r (r > 0 on
    the rule), the k = 0 row set to its limit sqrt(2/pi)."""
    r, m = _radial_measure(V, k_max)
    J = np.multiply.outer(k, r)
    if V.d == 2:
        return _j0(J), m
    c = math.sqrt(2.0 / math.pi)
    if V.d == 1:
        np.cos(J, out=J)
        J *= c
        return J, m
    np.sin(J, out=J)
    J *= (c / np.where(k == 0.0, 1.0, k))[:, None]
    J /= r
    J[k == 0.0] = c
    return J, m


def fourier_hat(V: RadialPotential, k):
    """Radial Fourier transform with the (2 pi)^(-d/2) convention,
    elementwise in k: the integral of V(r) j_d(k r) r^(d-1) dr."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("k must be nonnegative")
    J, m = _radial_waves(V, k.ravel(), float(k.max(initial=0.0)))
    out = (J @ m).reshape(k.shape)
    return out if out.ndim else float(out)


def e_mu(V: RadialPotential, mu: float) -> float:
    """Fermi-surface coupling: integral of V(r) j_d(r; mu)^2 r^(d-1) dr."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    r, m = _radial_measure(V, 2.0 * math.sqrt(mu))
    return float(m @ j_d(r, mu, V.d) ** 2)


def vmu_spectrum(V: RadialPotential, mu: float, ell_max: int) -> np.ndarray:
    """Angular-momentum components of Vhat restricted to the Fermi sphere.

    Returns (v_0, ..., v_ell_max); v_0 equals e_mu.  d = 1 has no angular
    decomposition (the Fermi "sphere" is two points) and is rejected.
    """
    if V.d == 1:
        raise ValueError(
            "d=1 has no angular harmonics; use e_mu, the single coupling number")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    # Bessel addition theorem: the Fermi-sphere projections of Vhat are
    # position-space integrals against squared (spherical) Bessel functions,
    # J_l in d = 2 and sqrt(2/pi) j_l in d = 3.
    r, m = _radial_measure(V, 2.0 * math.sqrt(mu))
    out = bessel_squares(ell_max, math.sqrt(mu) * r, V.d) @ m
    return out if V.d == 2 else (2.0 / math.pi) * out
