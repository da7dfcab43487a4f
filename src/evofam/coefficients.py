"""Time profiles for rate and kernel coefficients.

Every built-in model factors its time dependence through one of these
profiles, all of which carry a closed-form antiderivative so survival
factors exp(-integral) are exact (no time-quadrature error, and the
two-parameter evolution family composes exactly).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelContractError, StructureError


@dataclass(frozen=True)
class TimeProfile:
    """Scalar time coefficient k(t) with exact antiderivative.

    Kinds
    -----
    constant   k(t) = c0
    affine     k(t) = c0 + c1*t
    power      k(t) = c0 * t**p          (p > -1, defined for t >= 0;
               p < 0 is singular at t = 0, where ``value`` raises)
    pwlinear   piecewise-linear interpolant of (times, values), clamped
               to the end values outside the table range
    """

    kind: str = "constant"
    c0: float = 1.0
    c1: float = 0.0
    p: float = 0.0
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    _cum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("constant", "affine", "power", "pwlinear"):
            raise StructureError(f"unknown time profile kind {self.kind!r}")
        if self.kind == "power" and self.p <= -1.0:
            raise StructureError("power profile needs exponent > -1 for integrability")
        if self.kind == "pwlinear":
            if self.times is None or self.values is None:
                raise StructureError("pwlinear profile needs times and values")
            times = np.asarray(self.times, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if times.ndim != 1 or times.shape != values.shape or times.size < 2:
                raise StructureError("pwlinear profile needs matching 1-d times/values, >= 2 knots")
            if np.any(np.diff(times) <= 0):
                raise StructureError("pwlinear knot times must be strictly increasing")
            object.__setattr__(self, "times", times)
            object.__setattr__(self, "values", values)
            # exact cumulative integral at the knots (trapezoid is exact
            # for a piecewise-linear function)
            seg = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            object.__setattr__(self, "_cum", cum)

    def value(self, t: float) -> float:
        if self.kind == "constant":
            return self.c0
        if self.kind == "affine":
            return self.c0 + self.c1 * t
        if self.kind == "power":
            if t < 0.0:
                raise ModelContractError("power profile evaluated at t < 0")
            if t == 0.0 and self.p < 0.0:
                raise ModelContractError(
                    f"power profile with exponent {self.p!r} is singular at t = {t}")
            return self.c0 * float(t) ** self.p
        return float(np.interp(t, self.times, self.values))

    def antiderivative(self, t: float) -> float:
        """F(t) with F(0) = 0 (pwlinear: F(times[0]) = 0)."""
        if self.kind == "constant":
            return self.c0 * t
        if self.kind == "affine":
            return self.c0 * t + 0.5 * self.c1 * t * t
        if self.kind == "power":
            if t < 0.0:
                raise ModelContractError("power profile integrated below t = 0")
            return self.c0 * float(t) ** (self.p + 1.0) / (self.p + 1.0)
        times, values, cum = self.times, self.values, self._cum
        if t <= times[0]:
            return values[0] * (t - times[0])
        if t >= times[-1]:
            return float(cum[-1]) + values[-1] * (t - times[-1])
        i = int(np.searchsorted(times, t, side="right") - 1)
        vt = float(np.interp(t, times, values))
        return float(cum[i]) + 0.5 * (values[i] + vt) * (t - times[i])

    def integral(self, s: float, t: float) -> float:
        """Exact integral of k over [s, t]."""
        return self.antiderivative(t) - self.antiderivative(s)


@dataclass(frozen=True)
class SeparableCoefficient:
    """Nonnegative coefficient profile(t) * space(x) with exact time integral.

    ``value(t)`` returns the per-node coefficient array; ``integral(s, t)``
    the array of exact time integrals, so exponential flows built on it
    compose to rounding.
    """

    profile: TimeProfile
    space: np.ndarray

    def __post_init__(self):
        space = np.asarray(self.space, dtype=float)
        if space.ndim != 1 or space.size == 0:
            raise StructureError("separable coefficient needs a 1-d space factor")
        object.__setattr__(self, "space", space)

    def value(self, t: float) -> np.ndarray:
        return self.profile.value(t) * self.space

    def integral(self, s: float, t: float) -> np.ndarray:
        return self.profile.integral(s, t) * self.space


def sample_nonnegative(coef: SeparableCoefficient, times: np.ndarray, size: int,
                       what: str) -> np.ndarray:
    """``coef.value(t)`` at every sample time as one (T, size) array.

    Raises naming the first sample time and node where ``what`` is not
    finite or is negative.
    """
    if coef.space.shape != (size,):
        raise StructureError(f"{what} must return one value per grid node")
    values = np.array([coef.profile.value(t) for t in times])[:, None] * coef.space
    for bad, problem in ((~np.isfinite(values), "not finite"), (values < 0.0, "negative")):
        if bad.any():
            i, v = np.argwhere(bad)[0]
            raise ModelContractError(f"{what} {problem} at t = {times[i]}, node index {v}")
    return values


def time_profile_from_params(kind: str, params: dict) -> TimeProfile:
    """Build a TimeProfile from flat config parameters."""
    if kind == "constant":
        return TimeProfile(kind="constant", c0=float(params.get("value", 1.0)))
    if kind == "affine":
        return TimeProfile(kind="affine", c0=float(params.get("c0", 1.0)),
                           c1=float(params.get("c1", 0.0)))
    if kind == "power":
        return TimeProfile(kind="power", c0=float(params.get("scale", 1.0)),
                           p=float(params.get("exponent", 1.0)))
    if kind == "pwlinear":
        times = np.asarray(params["times"], dtype=float)
        values = np.asarray(params["values"], dtype=float)
        return TimeProfile(kind="pwlinear", times=times, values=values)
    raise StructureError(f"unknown time profile kind {kind!r}")
