"""Kernel-sample spline approximation and similarity means.

Discrete kernel samples {(t_j, K(t_j))} are approximated per interval
[t_j, t_{j+1}) by the quadratic segment

    K_j(t) = B_j + 2C_j*(t - t_j) + 3D_j*(t - t_j)**2

with B_j = K(t_j), segment 1 flat (C_1 = D_1 = 0), and for j >= 2

    2C_j = 2*t_j*(K_j - K_{j-1}) / (h_{j-1} * (2*t_j - h_{j-1}))
    3D_j =       (K_j - K_{j-1}) / (h_{j-1} * (2*t_j - h_{j-1}))

where h_{j-1} = t_j - t_{j-1}. The doubled/tripled coefficients are stored
as-is so the bundled reference table can be compared digit for digit.

The fitted spline is one ``Spline`` whose fields are arrays with one entry
per knot. Fitting and evaluation are elementwise ``+ - * /`` over those
arrays, so they round exactly as a scalar loop over the knots would: knot
interpolation and the 2C = 2*t*3D identity hold bitwise.

The segment notation carries a nonlinearity exponent in the source scheme,
but the algebra above does not depend on it; segments here are exponent-free.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    DegenerateColumnError,
    DomainError,
    InsufficientDataError,
    OutOfRangeError,
    SingularDenominatorError,
    ValidationError,
)
from .material import PowerLaw, phi0

TABLE1_RESOURCE = "table1_kernel_samples.csv"

# Reference-table coefficient columns as printed, kept as text so the
# comparison can honor the table's own rounding resolution.
TABLE1_PRINTED_2C = (
    "0", "-100", "-149", "-137", "-167", "-130", "-186", "-39.3",
    "-12.25", "-27", "-8.3", "-6", "-2.5", "-0.6", "-0.34", "-0.2",
)
TABLE1_PRINTED_3D = (
    "0", "-10", "-10.42", "-6.86", "-6.82", "-4.32", "-5.47", "-0.65",
    "-0.09", "-0.17", "-0.04", "-0.02", "-0.005", "-0.0008", "-0.0002",
    "-0.0001",
)

# A recomputed coefficient is consistent with a printed one when it is
# within this relative tolerance or within half a unit of the printed
# value's last digit.
TABLE1_REL_TOL = 0.02


@dataclass(frozen=True)
class KernelSamples:
    """Ordered kernel samples (t_j, K(t_j)), j = 1..n."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.ndim != 1 or len(t) != len(v):
            raise DomainError("times and values must be 1-d and equally long")
        if len(t) < 1:
            raise DomainError("need at least one sample")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise DomainError("sample times and values must be finite")
        if len(t) > 1 and not np.all(np.diff(t) > 0.0):
            raise DomainError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t_star(self) -> float:
        """Terminal sample time t_n."""
        return float(self.times[-1])


@dataclass(frozen=True)
class IsochroneDataset:
    """Isochronous stress values phi_t(eps_i, t_j) on a strain x time grid."""

    strain_levels: np.ndarray
    times: np.ndarray
    phi_t: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.strain_levels, dtype=float)
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.phi_t, dtype=float)
        object.__setattr__(self, "strain_levels", eps)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "phi_t", m)
        if eps.ndim != 1 or len(eps) < 1:
            raise DomainError("need at least one strain level")
        if t.ndim != 1 or len(t) < 2:
            raise DomainError("need at least two isochrone times")
        if np.any(eps <= 0.0) or not np.all(np.diff(eps) > 0.0):
            raise DomainError("strain levels must be positive and increasing")
        if np.any(t < 0.0) or not np.all(np.diff(t) > 0.0):
            raise DomainError("times must be nonnegative and increasing")
        if m.shape != (len(eps), len(t)):
            raise DomainError(
                f"phi_t must have shape {(len(eps), len(t))}, got {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise DomainError("phi_t values must be finite")


@dataclass(frozen=True)
class Spline:
    """The quadratic segments, one entry per knot in each array field.

    Row j is the segment anchored at knot ``t[j]``. ``twoC`` and ``threeD``
    store the doubled and tripled coefficients of the printed scheme; halve
    / third them where plain C_j, D_j are needed. Indexing selects rows: an
    int gives a Spline of scalars, a slice or index array a Spline of arrays.
    """

    t: np.ndarray
    B: np.ndarray
    twoC: np.ndarray
    threeD: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, rows) -> Spline:
        return Spline(self.t[rows], self.B[rows], self.twoC[rows], self.threeD[rows])

    def value(self, time):
        """Each row's polynomial at its own time (no range check); broadcasts."""
        dt = time - self.t
        return self.B + self.twoC * dt + self.threeD * dt * dt


def similarity_means(data: IsochroneDataset, pl: PowerLaw) -> np.ndarray:
    """Least-squares similarity means, one per isochrone time.

    For each column j the minimizer of
    sum_i [phi0(eps_i) - S_j * phi_t(eps_i, t_j)]**2 is

        S_j = sum_i phi0(eps_i) * phi_t(eps_i, t_j) / sum_i phi_t(eps_i, t_j)**2
    """
    phi_inst = phi0(pl, data.strain_levels)
    denom = np.sum(data.phi_t ** 2, axis=0)
    bad = np.nonzero(denom == 0.0)[0]
    if bad.size:
        raise DegenerateColumnError(
            f"isochrone column {bad[0] + 1} is identically zero"
        )
    return (phi_inst @ data.phi_t) / denom


def fit_kernel_spline(samples: KernelSamples) -> Spline:
    """Fit the quadratic segments to kernel samples.

    Segment 1 is the constant B_1; later segments use backward differences.
    Raises when a coefficient denominator 2*t_j - h_{j-1} vanishes.
    """
    if len(samples) < 2:
        raise InsufficientDataError("need at least two samples to fit segments")
    t, K = samples.times, samples.values
    h = np.diff(t)
    bracket = 2.0 * t[1:] - h
    singular = np.flatnonzero(bracket == 0.0)
    if singular.size:
        j = singular[0] + 1
        raise SingularDenominatorError(
            f"2*t_j equals h_(j-1) at knot {j + 1} (t = {t[j]})",
            knot_index=j + 1,
        )
    threeD = np.diff(K) / (h * bracket)
    # twoC derived from threeD so the 2C/3D = 2*t_j identity is bitwise
    twoC = 2.0 * t[1:] * threeD
    return Spline(t, K, np.insert(twoC, 0, 0.0), np.insert(threeD, 0, 0.0))


def eval_kernel_spline(spline: Spline, t):
    """Value of the fitted spline at t; exactly B_j at each knot.

    Segment j covers [t_j, t_{j+1}); the last knot belongs to the last one.
    """
    knots = spline.t
    if np.any((t < knots[0]) | (t > knots[-1])):
        raise OutOfRangeError(
            f"t = {t} outside the fitted range [{knots[0]}, {knots[-1]}]"
        )
    return spline[np.searchsorted(knots, t, side="right") - 1].value(t)


def integrate_segment_from_zero(spline: Spline):
    """integral_0^{t_j} of each segment's polynomial: B*t - C*t**2 + D*t**3.

    The segment polynomial is extended over [0, t_j] as in the printed
    scheme; C and D are the stored doubled/tripled coefficients halved and
    thirded.
    """
    t = spline.t
    C = spline.twoC / 2.0
    D = spline.threeD / 3.0
    return spline.B * t - C * t * t + D * t ** 3


def table1_fixture() -> KernelSamples:
    """The bundled 16-row reference kernel dataset (t from 0 to 1050)."""
    text = resources.files("viscoident.data").joinpath(TABLE1_RESOURCE).read_text()
    rows = list(csv.reader(text.strip().splitlines()))
    body = rows[1:]  # skip header
    times = np.array([float(r[1]) for r in body])
    values = np.array([float(r[2]) for r in body])
    return KernelSamples(times, values)


def _half_ulp(printed: str) -> float:
    """Half a unit in the last place of a printed decimal."""
    mantissa = printed.lstrip("-")
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 0.5 * 10.0 ** (-decimals)


def compare_table1(samples: KernelSamples | None = None) -> list[dict]:
    """Recompute the reference-table coefficients and compare to print.

    A row is flagged formula-inconsistent when a recomputed coefficient is
    both more than ``TABLE1_REL_TOL`` relative away from the printed value
    and outside half a unit of the printed value's last digit (the latter
    absorbs the table's own display rounding). Sample j is compared with
    printed row j, so the samples must have as many rows as the table.
    """
    if samples is None:
        samples = table1_fixture()
    if len(samples) != len(TABLE1_PRINTED_2C):
        raise ValidationError(
            f"the reference table has {len(TABLE1_PRINTED_2C)} rows, "
            f"the samples have {len(samples)}"
        )
    report = []
    for j, seg in enumerate(fit_kernel_spline(samples)):
        row = {"j": j + 1, "t": seg.t, "B": seg.B}
        flagged = False
        for name, computed, printed in (
            ("2C", seg.twoC, TABLE1_PRINTED_2C[j]),
            ("3D", seg.threeD, TABLE1_PRINTED_3D[j]),
        ):
            pval = float(printed)
            diff = abs(computed - pval)
            rel = diff / abs(pval) if pval != 0.0 else (0.0 if diff == 0.0 else np.inf)
            ok = rel <= TABLE1_REL_TOL or diff <= _half_ulp(printed)
            row[f"printed_{name}"] = pval
            row[f"computed_{name}"] = computed
            row[f"rel_{name}"] = rel
            flagged = flagged or not ok
        row["flagged"] = flagged
        report.append(row)
    return report
