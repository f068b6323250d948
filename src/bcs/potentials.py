"""Radial potential profiles in d = 1, 2, 3 and the spherically reduced
quantities built from them: Fourier transforms, the Fermi-surface coupling
e_mu, and its angular-momentum decomposition.  Every radial transform of V
is a dot product with the masses V(r) w r^(d-1) of one fixed Gauss-Legendre
rule on [0, cutoff], whose panels radial_edges lays out to break at
V.breakpoints and to resolve the integrand's highest frequency."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .quad import _subdivide, gauss_panels
from .special import j_d

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
# Fraction of its peak scale that |V| stays below beyond cutoff_radius().
_CUTOFF_EPS = 1e-16


class ExtrapolationWarning(UserWarning):
    """A tabulated potential was evaluated beyond its last node."""


@dataclass(frozen=True)
class RadialPotential:
    """Base type: a rotation-invariant potential V(|x|) on R^d."""

    d: int

    def _validate_d(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")

    def value(self, r):
        raise NotImplementedError

    def cutoff_radius(self) -> float:
        """Radius beyond which |V| stays below _CUTOFF_EPS * (peak scale)."""
        raise NotImplementedError

    @property
    def range_scale(self) -> float:
        """Characteristic decay length, used to size momentum cutoffs."""
        raise NotImplementedError

    @property
    def breakpoints(self) -> tuple:
        """Radii where the profile or one of its derivatives jumps; the
        panels of a fixed rule break there."""
        return ()

    def is_nonnegative(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianPotential(RadialPotential):
    a: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        self._validate_d()
        if not (self.ell > 0 and math.isfinite(self.a)):
            raise ValueError("need ell > 0 and finite amplitude")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = self.a * np.exp(-((r / self.ell) ** 2))
        return out if out.ndim else float(out)

    def cutoff_radius(self):
        return self.ell * math.sqrt(math.log(1.0 / _CUTOFF_EPS))

    @property
    def range_scale(self):
        return self.ell

    def is_nonnegative(self):
        return self.a >= 0


@dataclass(frozen=True)
class ExponentialPotential(RadialPotential):
    a: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        self._validate_d()
        if not (self.ell > 0 and math.isfinite(self.a)):
            raise ValueError("need ell > 0 and finite amplitude")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = self.a * np.exp(-r / self.ell)
        return out if out.ndim else float(out)

    def cutoff_radius(self):
        return self.ell * math.log(1.0 / _CUTOFF_EPS)

    @property
    def range_scale(self):
        return self.ell

    def is_nonnegative(self):
        return self.a >= 0


@dataclass(frozen=True)
class StepPotential(RadialPotential):
    """a on [0, R], zero outside."""

    a: float = 1.0
    R: float = 1.0

    def __post_init__(self):
        self._validate_d()
        if not (self.R > 0 and math.isfinite(self.a)):
            raise ValueError("need R > 0 and finite amplitude")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self.R, self.a, 0.0)
        return out if out.ndim else float(out)

    def cutoff_radius(self):
        return self.R

    @property
    def range_scale(self):
        return self.R

    @property
    def breakpoints(self):
        return (self.R,)

    def is_nonnegative(self):
        return self.a >= 0


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
        self._validate_d()
        r = np.asarray(self.r_values, dtype=float)
        v = np.asarray(self.v_values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or len(r) < 4:
            raise ValueError("need matching 1-d r/v samples, at least 4 points")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise ValueError("r samples must be nonnegative and strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("v samples must be finite")
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
        return float(self.r_values[-1])

    @property
    def range_scale(self):
        r = np.asarray(self.r_values)
        v = np.abs(np.asarray(self.v_values))
        # half-maximum crossing as a rough decay length
        peak = v.max()
        below = np.nonzero(v <= 0.5 * peak)[0]
        after_peak = below[below >= int(np.argmax(v))]
        i = int(after_peak[0]) if len(after_peak) else len(r) - 1
        return float(max(r[i], r[-1] / 8.0))

    @property
    def breakpoints(self):
        return tuple(self.r_values[1:-1])

    def is_nonnegative(self):
        return bool(np.min(np.asarray(self.v_values)) >= -1e-12 * np.max(np.abs(self.v_values)))


_KINDS = {
    "gaussian": (GaussianPotential, ("a", "ell")),
    "exponential": (ExponentialPotential, ("a", "ell")),
    "step": (StepPotential, ("a", "R")),
    "tabulated": (TabulatedPotential, ("r_values", "v_values")),
}


def from_config(cfg: dict) -> RadialPotential:
    """Build a potential from a JSON-style dict with a "kind" tag."""
    if "kind" not in cfg:
        raise ValueError("potential config needs a 'kind' field")
    kind = cfg["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown potential kind {kind!r}; choose from {sorted(_KINDS)}")
    cls, fields = _KINDS[kind]
    unknown = set(cfg) - set(fields) - {"kind", "d"}
    if unknown:
        raise ValueError(f"unknown potential fields for kind {kind!r}: {sorted(unknown)}")
    if "d" not in cfg:
        raise ValueError("potential config needs the dimension 'd'")
    kwargs = {f: cfg[f] for f in fields if f in cfg}
    for key in ("r_values", "v_values"):
        if key in kwargs:
            kwargs[key] = tuple(float(x) for x in kwargs[key])
    return cls(d=int(cfg["d"]), **kwargs)


def to_config(V: RadialPotential) -> dict:
    """Inverse of from_config."""
    for kind, (cls, fields) in _KINDS.items():
        if type(V) is cls:
            cfg = {"kind": kind, "d": V.d}
            for f in fields:
                val = getattr(V, f)
                cfg[f] = list(val) if isinstance(val, tuple) else val
            return cfg
    raise ValueError(f"unregistered potential type {type(V).__name__}")


def radial_edges(V: RadialPotential, k_max: float) -> np.ndarray:
    """Panel edges on [0, cutoff] that break at V.breakpoints and are at most
    range_scale and 8 / k_max wide, so their count grows like k_max * cutoff.
    A 16-node panel then integrates V(r) cos(k r) to machine precision for
    every k up to k_max."""
    rc = V.cutoff_radius()
    h = min(V.range_scale, 8.0 / k_max) if k_max > 0.0 else V.range_scale
    knots = np.array([0.0, *sorted(b for b in V.breakpoints if 0.0 < b < rc), rc])
    return _subdivide(knots, np.ceil(np.diff(knots) / h))


def _radial_measure(V: RadialPotential, k_max: float, n: int = 16):
    """Nodes r and masses m = V(r) w r^(d-1) of the n-point rule on
    radial_edges(V, k_max): the integral of V(r) f(r) r^(d-1) over
    [0, cutoff] is m @ f(r) for every f of frequency up to k_max."""
    r, w = gauss_panels(radial_edges(V, k_max), n)
    return r, V.value(r) * w * r ** (V.d - 1)


def fourier_hat(V: RadialPotential, k):
    """Radial Fourier transform with the (2 pi)^(-d/2) convention,
    elementwise in k: the integral of V(r) j_d(k r) r^(d-1) dr."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("k must be nonnegative")
    r, m = _radial_measure(V, float(k.max(initial=0.0)))
    out = j_d(np.multiply.outer(k, r), 1.0, V.d) @ m
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
    # position-space integrals against squared (spherical) Bessel functions.
    r, m = _radial_measure(V, 2.0 * math.sqrt(mu))
    ell, z = np.arange(ell_max + 1)[:, None], math.sqrt(mu) * r
    if V.d == 2:
        basis = _sp.jv(ell, z)
    else:
        basis = math.sqrt(2.0 / math.pi) * _sp.spherical_jn(ell, z)
    return basis ** 2 @ m
