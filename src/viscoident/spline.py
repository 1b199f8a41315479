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

This module holds kernel samples end to end: the ``KernelSamples`` type,
the three routes that make them from a record (a creep history, a
relaxation history, an isochrone matrix through its similarity means),
each differentiating the record and dropping a t = 0 row in
``_kernel_samples``, and the spline fitted to them. ``KernelSamples``,
``IsochroneDataset`` and ``Spline`` are ``kernels._Record``s.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    OutOfRangeError,
    SingularDenominatorError,
    ValidationError,
)
from .kernels import _check_domain, _check_positive, _check_times, _Record
from .material import (KIND_CREEP, KIND_RELAXATION, PowerLaw, ResponseHistory,
                       differentiate, phi0)

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


class KernelSamples(_Record):
    """Kernel samples (t_j, K(t_j)), j = 1..n, finite, on a time axis."""

    _fields = ("times", "values")

    def __init__(self, times: np.ndarray, values: np.ndarray):
        t = _check_times("sample times", times, 1)
        v = np.asarray(values, dtype=float)
        if v.shape != t.shape:
            raise DomainError("times and values must be 1-d and equally long")
        _check_domain(v, ~np.isfinite(v), "sample values must be finite")
        self._set(t, v)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t_star(self) -> float:
        """Terminal sample time t_n."""
        return float(self.times[-1])


class IsochroneDataset(_Record):
    """Isochronous stresses 0 < phi_t(eps_i, t_j) < inf, strain levels > 0, times >= 0."""

    _fields = ("strain_levels", "times", "phi_t")

    def __init__(self, strain_levels: np.ndarray, times: np.ndarray,
                 phi_t: np.ndarray):
        eps = _check_times("strain levels", strain_levels, 1)
        _check_positive("strain levels", eps)
        t = _check_times("isochrone times", times, 2)
        _check_domain(t, t < 0.0, "isochrone times must be >= 0")
        m = np.asarray(phi_t, dtype=float)
        if m.shape != (len(eps), len(t)):
            raise DomainError(
                f"phi_t must have shape {(len(eps), len(t))}, got {m.shape}"
            )
        _check_positive("isochrone values", m)
        self._set(eps, t, m)


class Spline(_Record):
    """The quadratic segments, one entry per knot in each array field.

    Row j is the segment anchored at knot ``t[j]``. ``twoC`` and ``threeD``
    store the doubled and tripled coefficients of the printed scheme; halve
    / third them where plain C_j, D_j are needed. Indexing selects rows: an
    int gives a Spline of scalars, a slice or index array a Spline of arrays.
    """

    _fields = ("t", "B", "twoC", "threeD")

    def __init__(self, t: np.ndarray, B: np.ndarray, twoC: np.ndarray,
                 threeD: np.ndarray):
        self._set(t, B, twoC, threeD)

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

    Each column is divided by its largest value c_j > 0 before it is
    squared, so the sums neither overflow nor underflow at any data scale,
    and a power-of-two rescaling of a column rescales S_j exactly.
    """
    phi_inst = phi0(pl, data.strain_levels)
    scale = np.max(data.phi_t, axis=0)
    unit = data.phi_t / scale
    return (phi_inst @ unit) / np.sum(unit ** 2, axis=0) / scale


def _kernel_samples(times: np.ndarray, values: np.ndarray) -> KernelSamples:
    """Kernel samples of a differentiated record less a t = 0 row (K is singular)."""
    start = int(times[0] == 0.0)
    return KernelSamples(times[start:], values[start:])


def extract_creep_kernel_samples(hist: ResponseHistory,
                                 pl: PowerLaw) -> KernelSamples:
    """Kernel samples from a creep record via the similarity route.

    The similarity function is phi0(eps(t))/sigma; its time derivative is
    the hereditary memory lam*K(t), so the extracted samples carry the
    intensity scale (the intensity is not separately observable from one
    creep record). Differentiation is second order. A similarity function
    that overflows, or that underflows to 0 after t = 0, is a DomainError.
    """
    if hist.kind != KIND_CREEP:
        raise DomainError(f"need a {KIND_CREEP} history, got kind {hist.kind!r}")
    with np.errstate(over="ignore"):  # an overflow is the error below
        s = phi0(pl, hist.values) / hist.driver
    if not np.all(np.isfinite(s)):
        raise DomainError(f"the similarity function phi0(eps)/sigma overflows "
                          f"at t = {hist.times[~np.isfinite(s)][0]:.9g}: "
                          f"the kernel samples are undefined")
    if not np.all(s[1:] > 0.0):  # the grid starts at t = 0
        raise DomainError(f"the similarity function phi0(eps)/sigma underflows "
                          f"to 0 at t = {hist.times[1:][s[1:] <= 0.0][0]:.9g}: "
                          f"the kernel samples are undefined")
    return _kernel_samples(hist.times, differentiate(s, hist.times))


def relaxation_kernel_from_history(hist: ResponseHistory,
                                   pl: PowerLaw) -> KernelSamples:
    """Kernel samples lam*R(t_j) = -sigma'(t_j) / phi0(eps_const) from a
    relaxation record; like the creep route, they carry the intensity scale.
    A phi0(eps_const) that underflows to 0 is a DomainError: the samples
    would be 0/0."""
    if hist.kind != KIND_RELAXATION:
        raise DomainError(
            f"need a {KIND_RELAXATION} history, got kind {hist.kind!r}"
        )
    phi_held = phi0(pl, hist.driver)
    if phi_held == 0.0:
        raise DomainError(f"phi0 of the held strain eps = {hist.driver} underflows "
                          f"to 0 at H = {pl.H}, q = {pl.q}: the kernel samples "
                          f"are undefined")
    return _kernel_samples(hist.times,
                           -differentiate(hist.values, hist.times) / phi_held)


def derive_samples_from_isochrones(iso: IsochroneDataset,
                                   pl0: PowerLaw) -> KernelSamples:
    """Similarity means differentiated on the isochrone time grid.

    Like the record routes, the result carries the intensity scale inside
    the sample values. A mean that underflows to 0 (phi0 vanishing at every
    strain level) is a DomainError.
    """
    s_bar = similarity_means(iso, pl0)
    if not np.all(s_bar > 0.0):
        raise DomainError(f"the similarity mean underflows to 0 at t = "
                          f"{iso.times[s_bar <= 0.0][0]:.9g}: the kernel "
                          f"samples are undefined")
    return _kernel_samples(iso.times, differentiate(s_bar, iso.times))


def fit_kernel_spline(samples: KernelSamples) -> Spline:
    """Fit the quadratic segments to kernel samples.

    Segment 1 is the constant B_1; later segments use backward differences.
    Raises when a coefficient comes out non-finite: its denominator
    h_{j-1}*(2*t_j - h_{j-1}) vanishes (2*t_j = h_{j-1}, or the product
    underflows on a fine grid) or is too small for the data.
    """
    if len(samples) < 2:
        raise InsufficientDataError("need at least two samples to fit segments")
    t, K = samples.times, samples.values
    h = np.diff(t)
    denom = h * (2.0 * t[1:] - h)
    with np.errstate(all="ignore"):
        threeD = np.diff(K) / denom
        # twoC derived from threeD so the 2C/3D = 2*t_j identity is bitwise
        twoC = 2.0 * t[1:] * threeD
    singular = np.flatnonzero(~np.isfinite(twoC))
    if singular.size:
        j = singular[0] + 1
        raise SingularDenominatorError(
            f"coefficient denominator h_(j-1)*(2*t_j - h_(j-1)) is "
            f"{denom[j - 1]:.3g} at knot {j + 1} (t = {t[j]}): its segment "
            f"coefficients are not finite",
            knot_index=j + 1,
        )
    return Spline(t, K, np.insert(twoC, 0, 0.0), np.insert(threeD, 0, 0.0))


def eval_kernel_spline(spline: Spline, t):
    """Value of the fitted spline at t; exactly B_j at each knot.

    Segment j covers [t_j, t_{j+1}); the last knot belongs to the last one.
    """
    knots = spline.t
    _check_domain(t, ~((t >= knots[0]) & (t <= knots[-1])),  # NaN fails too
                  f"t must lie in the fitted range [{knots[0]}, {knots[-1]}]",
                  OutOfRangeError)
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
    table = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)  # j, t, K
    return KernelSamples(table[:, 1], table[:, 2])


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
