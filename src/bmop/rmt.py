"""Correlation kernel of the coupled two-matrix product model and a
Monte-Carlo sampler validating its one-point statistics.

The squared singular values of X1 X2, with X1 = (A - i sqrt(tau) B)/sqrt(2)
and X2 = (A* - i sqrt(tau) B*)/sqrt(2) built from independent n x M complex
Gaussian matrices, form a determinantal process whose kernel is
K_n(x,y) = sum_{k<n} Q_k(x) P_k(y) for the weight family with parameters
(mu = kappa, nu = nu_total - kappa, a = alpha, b = beta).
"""

from __future__ import annotations

import itertools
import math
import struct
import warnings
from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath import mp
from scipy import special

from .errors import BinUnderflowWarning, DimensionError, DomainError
from .precision import bits_for
from . import mopoly, quad, recurrence
from .specfun import Params


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: kappa = L - n, nu_total = M - n, coupling alpha,
    scale beta, and the process size n."""

    kappa: int
    nu_total: float
    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        if self.kappa < 0 or self.kappa != int(self.kappa):
            raise DomainError("kappa must be a non-negative integer")
        if not self.nu_total > self.kappa:
            raise DomainError("nu_total must exceed kappa")
        if not (self.beta > self.alpha > 0):
            raise DomainError("need beta > alpha > 0")
        if self.n < 1:
            raise DomainError("n must be >= 1")

    @property
    def params(self) -> Params:
        return Params(mu=float(self.kappa), nu=self.nu_total - self.kappa,
                      a=self.alpha, b=self.beta)


@dataclass(frozen=True)
class CoupledModel:
    """Gaussian coupled product model: matrix size n, inner dimension M,
    coupling strength tau, RNG seed."""

    n: int
    M: int
    tau: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.M <= self.n:
            raise DimensionError("M must exceed n (nu = M - n > 0 required)")
        if not 0.0 < self.tau < 1.0:
            raise DomainError("tau must lie in (0, 1)")

    @property
    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(kappa=0, nu_total=float(self.M - self.n),
                          alpha=(1.0 - self.tau) / (2.0 * self.tau),
                          beta=(1.0 + self.tau) / (2.0 * self.tau),
                          n=self.n)


_MAGIC = b"BMOPSMP1"


@dataclass
class SampleBatch:
    """Squared singular values from repeated draws: values has one row per
    sample and n columns (unsorted within a row)."""

    values: np.ndarray
    n: int
    M: int
    tau: float
    seed: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.n:
            raise DimensionError("values must have shape (num_samples, n)")
        if np.any(self.values < 0):
            raise DomainError("squared singular values must be >= 0")

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path: str) -> None:
        header = (f"# coupled-product samples: n={self.n} M={self.M} "
                  f"tau={self.tau!r} seed={self.seed} num_samples={self.num_samples}")
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in self.values:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def from_csv(cls, path: str, n: int, M: int, tau: float, seed: int) -> "SampleBatch":
        rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        return cls(rows, n, M, tau, seed)

    def to_binary(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<ii", self.n, self.M))
            fh.write(struct.pack("<dq", self.tau, self.seed))
            fh.write(self.values.astype("<f8").tobytes())

    @classmethod
    def from_binary(cls, path: str) -> "SampleBatch":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _MAGIC:
                raise DomainError(f"bad magic {magic!r}")
            n, M = struct.unpack("<ii", fh.read(8))
            tau, seed = struct.unpack("<dq", fh.read(16))
            data = np.frombuffer(fh.read(), dtype="<f8")
        if data.size % n:
            raise DimensionError("payload size is not a multiple of n")
        return cls(data.reshape(-1, n).copy(), n, M, tau, seed)


def kernel_eval(spec: KernelSpec, x: float, y: float) -> float:
    """K_n(x, y) = sum_{k<n} Q_k(x) P_k(y)."""
    if x <= 0 or y <= 0:
        raise DomainError("kernel arguments must be > 0")
    p = spec.params
    return math.fsum(mopoly.q_eval(p, k, x) * mopoly.p_eval(p, k, y)
                     for k in range(spec.n))


def kernel_density_curve(spec: KernelSpec, grid) -> list:
    """Diagonal kernel values (x, K_n(x,x)) on a strictly increasing grid.

    A shared weight table makes this linear rather than quadratic in the
    number of Bessel evaluations.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or len(xs) == 0:
        raise DomainError("grid must be a non-empty 1-d sequence")
    if np.any(xs <= 0) or np.any(np.diff(xs) <= 0):
        raise DomainError("grid must be strictly positive and increasing")
    return list(zip(xs.tolist(), _diagonal_density(spec, xs).tolist()))


def _diagonal_density(spec: KernelSpec, xs) -> np.ndarray:
    """K_n(x, x) = sum_{k<n} Q_k(x) P_k(x) at the nodes xs, from one weight table."""
    wg = mopoly.WeightGrid(spec.params, spec.n - 1, xs, bits=bits_for(spec.n - 1))
    return sum(wg.q_values(k) * wg.p_values(k) for k in range(spec.n))


def kernel_trace(spec: KernelSpec, cfg: quad.QuadConfig = quad.QuadConfig(),
                 bits: int = 200) -> float:
    """Integral of K_n(x, x) over (0, inf); equals n by biorthogonality."""
    return kernel_trace_partials(spec, cfg, bits)[-1]


def kernel_first_moment(spec: KernelSpec, cfg: quad.QuadConfig = quad.QuadConfig(),
                        bits: int = 200) -> float:
    """Integral of x K_n(x, x) dx; equals the recurrence sum of a_{0,k}."""
    rule = quad.ProductRule(spec.params, spec.n - 1, bits, cfg)
    with mp.workprec(bits):
        return float(mpmath.fsum(rule.integral(k, k, 1) for k in range(spec.n)))


def kernel_trace_partials(spec: KernelSpec,
                          cfg: quad.QuadConfig = quad.QuadConfig(),
                          bits: int = 200) -> list:
    """Traces of K_1 .. K_n from one product rule.

    The trace of K_m is the cumulative sum of the diagonal integrals
    d_k = integral Q_k P_k, so all sizes up to n share one weight table.
    """
    rule = quad.ProductRule(spec.params, spec.n - 1, bits, cfg)
    diagonal = [rule.integral(k, k) for k in range(spec.n)]
    with mp.workprec(bits):
        return [float(t) for t in itertools.accumulate(diagonal)]


def mean_trace_identity(spec: KernelSpec) -> float:
    """Closed-form first moment: sum over k < n of a_{0,k}."""
    p = spec.params
    return math.fsum(recurrence.q_recurrence_coeffs(p, k).a0 for k in range(spec.n))


_CHUNK = 2048


def sample_coupled(model: CoupledModel, num_samples: int) -> SampleBatch:
    """Draw squared singular values of X1 X2.

    Entries of A and B are standard complex Gaussians with unit total
    variance (real and imaginary parts N(0, 1/2) each); this is the
    convention under which the tau mapping reproduces the kernel, checked
    against the closed-form mean identity.  A counter-based Philox stream
    keyed on the seed makes results chunk-order independent and
    reproducible.
    """
    if num_samples < 1:
        raise DomainError("num_samples must be >= 1")
    n, M, tau = model.n, model.M, model.tau
    root = math.sqrt(tau)
    out = np.empty((num_samples, n))
    done = 0
    chunk_index = 0
    while done < num_samples:
        count = min(_CHUNK, num_samples - done)
        rng = np.random.Generator(np.random.Philox(key=model.seed).jumped(chunk_index))
        shape = (count, n, M)
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        x1 = (a - 1j * root * b) / math.sqrt(2.0)
        x2 = (np.conj(np.transpose(a, (0, 2, 1)))
              - 1j * root * np.conj(np.transpose(b, (0, 2, 1)))) / math.sqrt(2.0)
        prod = x1 @ x2
        sv = np.linalg.svd(prod, compute_uv=False)
        out[done:done + count] = sv ** 2
        done += count
        chunk_index += 1
    return SampleBatch(out, n, M, tau, model.seed)


@dataclass
class DensityReport:
    """Binned one-point comparison: observed counts vs kernel-predicted
    expectations, with a chi-square summary."""

    bin_edges: np.ndarray
    observed: np.ndarray
    expected: np.ndarray
    chi_square: float = field(init=False)
    dof: int = field(init=False)
    p_value: float = field(init=False)

    def __post_init__(self):
        resid = (self.observed - self.expected) ** 2 / self.expected
        self.chi_square = float(np.sum(resid))
        self.dof = max(len(self.observed) - 1, 1)
        self.p_value = float(special.chdtrc(self.dof, self.chi_square))


def _expected_counts(spec: KernelSpec, edges: np.ndarray, num_samples: int) -> np.ndarray:
    """num_samples * integral of K_n(x,x) over each bin, by per-bin 20-point
    Gauss panels in the u = sqrt(x) variable on one shared weight table."""
    order = 20
    us, ws = quad.gauss_panels(np.sqrt(edges), order)
    dens = _diagonal_density(spec, us * us)
    contrib = (ws * 2.0 * us * dens).reshape(len(edges) - 1, order).sum(axis=1)
    return num_samples * contrib


def density_compare(batch: SampleBatch, spec: KernelSpec, bins: int = 40) -> DensityReport:
    """Chi-square comparison of the empirical one-point density against the
    kernel prediction.

    Bins with expected count below 20 are merged into their right
    neighbor (with a BinUnderflowWarning), never dropped; an overflow bin
    collects the tail mass so the expectations sum to n * num_samples.
    """
    if batch.n != spec.n:
        raise DimensionError("batch and spec sizes differ")
    vals = batch.values.ravel()
    x_max = float(np.quantile(vals, 0.995))
    edges = np.linspace(0.0, x_max, bins + 1)
    edges[0] = 1e-12  # kernel needs x > 0; mass below is negligible
    observed = np.histogram(vals, bins=edges)[0].astype(float)
    expected = _expected_counts(spec, edges, batch.num_samples)

    # overflow bin for everything beyond the last edge
    observed = np.append(observed, float(np.sum(vals >= edges[-1])))
    expected = np.append(expected, max(spec.n * batch.num_samples - expected.sum(), 1e-9))

    # bin i spans [bounds[i], bounds[i + 1]), the overflow bin up to inf
    bounds = np.append(edges, np.inf)
    merged_edges, merged_obs, merged_exp = [bounds[0]], [], []
    acc_o = acc_e = 0.0
    underflow = False
    for i, (o, e) in enumerate(zip(observed, expected)):
        acc_o += o
        acc_e += e
        if acc_e >= 20.0:
            merged_edges.append(bounds[i + 1])
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
        else:
            underflow = True
    if acc_e > 0:
        if merged_exp:
            merged_edges[-1] = bounds[-1]
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_edges.append(bounds[-1])
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
    if underflow:
        warnings.warn("bins with expected count < threshold were merged",
                      BinUnderflowWarning)

    return DensityReport(np.asarray(merged_edges), np.asarray(merged_obs),
                         np.asarray(merged_exp))
