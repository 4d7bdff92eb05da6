"""Correctness checks applied to every value the benchmark gets back.

Each check compares one value with a reference computed apart from
loctime, or with a property the method must have, and records the
allowance it used, so a failure can be read off the report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Monte Carlo checks accept |mean - expectation| <= Z_MC * stderr.  At six
# standard errors a correct estimator fails about once in 5e8 checks.
Z_MC = 6.0


@dataclass(frozen=True)
class Check:
    """Outcome of one check.

    ``honesty`` is |value - reference| / reported error for checks of an
    analytic operation's own error estimate, else None.
    """

    name: str
    ok: bool
    error: float
    allowance: float
    honesty: float | None = None

    def describe(self) -> str:
        mark = "ok " if self.ok else "BAD"
        return (f"{mark} {self.name}: |error| {self.error:.3e} "
                f"allowance {self.allowance:.3e}")


def close(name: str, value: float, reference: float, allowance: float, *,
          reported: float | None = None) -> Check:
    """|value - reference| <= allowance.

    ``reported`` is the error the program claimed for the value; when
    given, the ratio of true to reported error is kept as a diagnostic.
    """
    value = float(value)
    err = abs(value - reference)
    ok = math.isfinite(value) and err <= allowance
    honesty = err / reported if reported else None
    return Check(name, ok, err if math.isfinite(err) else math.inf,
                 allowance, honesty)


def honest(name: str, value: float, reported: float, reference: float,
           reference_error: float) -> Check:
    """The reported error estimate covers the true error.

    The allowance is the reported estimate plus the reference's own
    uncertainty (rounding of a closed form, or mpmath's estimate).
    """
    return close(name, value, reference, reported + reference_error,
                 reported=reported)


def within_sigma(name: str, mean: float, stderr: float,
                 expectation: float) -> Check:
    """A Monte Carlo mean lies within Z_MC standard errors of its expectation.

    A zero standard error is rejected: it means the sample degenerated
    (every Wick weight underflowed, say), not that the mean is exact.
    """
    if not stderr > 0.0:
        return Check(name, False, abs(mean - expectation), 0.0)
    return close(name, mean, expectation, Z_MC * stderr)


def fingerprint(value) -> tuple:
    """Exact, hashable summary of a result: float bits and array digests."""
    if isinstance(value, (bool, int, str)) or value is None:
        return (value,)
    if isinstance(value, float):
        return (value.hex(),)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape,
                hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest())
    if isinstance(value, np.generic):
        return fingerprint(value.item())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            fingerprint(getattr(value, f.name))
            for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def identical(name: str, value, reference) -> Check:
    """Bit-identical results (thread count, tracing and repeat invariance)."""
    same = fingerprint(value) == fingerprint(reference)
    return Check(name, same, 0.0 if same else math.inf, 0.0)
