"""Scalar trigonometric building blocks.

Everything in this module is a plain function of complex numbers: the
half-cosh variable used for even trigonometric polynomials, the
trigonometric Vandermonde, the bulk products a/d attached to the
inhomogeneities, boundary reparametrization, and seeded parameter sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Separation (in the varsigma metric / from the lattice i*pi*Z) below which
# parameter sets are considered degenerate.
DELTA_MIN = 1e-2

# Collision threshold for varsigma values of polynomial roots.
VS_COLLISION = 1e-9

_IPI = 1j * np.pi


def varsigma(lam):
    """cosh(2*lam)/2, the natural variable for even trig polynomials."""
    return np.cosh(2 * lam) / 2


def canonical_root(sigma_value):
    """Deterministic lambda with varsigma(lambda) equal to the given value.

    The representative lies in the strip Im(lam) in (-pi/2, pi/2] with
    Re(lam) >= 0 whenever the residual sign choice is free.  Broadcasts over
    an array of values; a scalar value gives a complex.  The principal
    arccosh already lands in the strip for most values, so each of the
    three corrections runs only where its mask holds somewhere: the result
    is the same, bit for bit, with fewer numpy calls per root set.
    """
    lam = 0.5 * np.arccosh(2 * np.asarray(sigma_value, dtype=complex) + 0j)
    flip = (lam.real < 0) | ((lam.real == 0) & (lam.imag < 0))
    if flip.any():
        lam = np.where(flip, -lam, lam)
    low, high = lam.imag <= -np.pi / 2, lam.imag > np.pi / 2
    if low.any() or high.any():
        lam = np.where(low, lam + _IPI, np.where(high, lam - _IPI, lam))
    edge = abs(lam.imag + np.pi / 2) < 1e-15
    if edge.any():
        lam = np.where(edge, lam.conj(), lam)
    return complex(lam) if lam.ndim == 0 else lam


def vdm_hat(xs) -> complex:
    """Trigonometric Vandermonde prod_{j<k} (sinh^2 x_k - sinh^2 x_j).

    The order of the tuple matters for the sign.  Each factor is evaluated
    as sinh(x_k - x_j) * sinh(x_k + x_j), which keeps full relative accuracy
    for nearly coincident points (important in the homogeneous limit).
    """
    xs = list(xs)
    out = 1.0 + 0j
    for j in range(len(xs)):
        for k in range(j + 1, len(xs)):
            out *= np.sinh(xs[k] - xs[j]) * np.sinh(xs[k] + xs[j])
    return out if isinstance(out, np.clongdouble) else complex(out)


def dist_to_ipi_lattice(z) -> float:
    """Distance from z to the lattice i*pi*Z."""
    z = complex(z)
    k = round(z.imag / np.pi)
    return abs(z - 1j * np.pi * k)


@dataclass(frozen=True)
class BoundaryParams:
    """One boundary in both parametrizations.

    (sigma, kappa, tau) are the parameters of the scalar reflection matrix;
    (alpha, beta) satisfy sinh(alpha) cosh(beta) = sinh(sigma)/(2 kappa) and
    cosh(alpha) sinh(beta) = cosh(sigma)/(2 kappa).
    """

    sigma: complex
    kappa: complex
    tau: complex
    alpha: complex
    beta: complex

    def reparam_residual(self) -> float:
        r1 = np.sinh(self.alpha) * np.cosh(self.beta) - np.sinh(self.sigma) / (2 * self.kappa)
        r2 = np.cosh(self.alpha) * np.sinh(self.beta) - np.cosh(self.sigma) / (2 * self.kappa)
        return float(max(abs(r1), abs(r2)))


def reparam_boundary(sigma, kappa, tau) -> BoundaryParams:
    """Fill in (alpha, beta) for given (sigma, kappa, tau).

    Uses sinh(alpha+beta) = e^sigma/(2 kappa) and
    sinh(alpha-beta) = -e^{-sigma}/(2 kappa) with principal arcsinh branches.
    """
    if kappa == 0:
        raise ValueError("kappa = 0: diagonal boundary not representable in (alpha, beta)")
    spl = np.arcsinh(np.exp(sigma) / (2 * kappa) + 0j)
    smi = np.arcsinh(-np.exp(-sigma) / (2 * kappa) + 0j)
    alpha = (spl + smi) / 2
    beta = (spl - smi) / 2
    return BoundaryParams(sigma=complex(sigma), kappa=complex(kappa), tau=complex(tau),
                          alpha=complex(alpha), beta=complex(beta))


@dataclass(frozen=True)
class ModelParams:
    """Chain data: length, anisotropy, inhomogeneities and the two boundaries."""

    N: int
    eta: complex
    xi: tuple
    boundary_minus: BoundaryParams
    boundary_plus: BoundaryParams

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(complex(x) for x in self.xi))
        if self.N < 1 or len(self.xi) != self.N:
            raise ValueError("need N >= 1 inhomogeneities")

    def xi_shifted(self, n: int, h: int) -> complex:
        """xi_n + eta/2 - h*eta for site n (1-based) and h in {0, 1}."""
        return self.xi[n - 1] + self.eta / 2 - h * self.eta

    def xi_grid(self) -> np.ndarray:
        """The shifted grid as an (N, 2) array: entry [n - 1, h] is xi_shifted(n, h)."""
        return np.asarray(self.xi)[:, None] + self.eta / 2 - np.array([0, 1]) * self.eta

    def genericity_margin(self) -> float:
        """Smallest distance of xi_j^(hj) +/- xi_k^(hk) (j != k) to i*pi*Z."""
        pts = [self.xi_shifted(n, h) for n in range(1, self.N + 1) for h in (0, 1)]
        margin = np.inf
        for j in range(len(pts)):
            for k in range(len(pts)):
                if j // 2 == k // 2:
                    continue
                margin = min(margin,
                             dist_to_ipi_lattice(pts[j] - pts[k]),
                             dist_to_ipi_lattice(pts[j] + pts[k]))
        return float(margin)

    def is_generic(self) -> bool:
        if dist_to_ipi_lattice(self.eta) < DELTA_MIN:
            return False
        return self.genericity_margin() > DELTA_MIN

    def with_xi(self, xi) -> "ModelParams":
        return replace(self, xi=tuple(complex(x) for x in xi))


def bulk_a(lam, params: ModelParams):
    """a(lam) = prod sinh(lam - xi_n + eta/2); broadcasts over an array of lam and
    keeps its dtype (``clongdouble`` included), and a scalar lam gives a scalar."""
    return np.sinh(np.subtract.outer(lam, np.asarray(params.xi)) + params.eta / 2).prod(axis=-1)


def bulk_d(lam, params: ModelParams):
    """d(lam) = prod sinh(lam - xi_n - eta/2), elementwise as bulk_a."""
    return np.sinh(np.subtract.outer(lam, np.asarray(params.xi)) - params.eta / 2).prod(axis=-1)


def bulk_ad(lam, params: ModelParams):
    """(a(lam), d(lam)) of bulk_a and bulk_d."""
    return bulk_a(lam, params), bulk_d(lam, params)


@dataclass(frozen=True)
class TrigPoly:
    """Even trig polynomial prod_j (sinh^2 lam - sinh^2 lam_j), stored by roots.

    Monic in varsigma: evaluation equals prod_j (varsigma(lam) - varsigma(lam_j)).
    Extended-precision (``np.clongdouble``) roots are kept as they are, so
    evaluation stays in that precision; every other root is cast to complex.
    The roots' varsigma values are computed once, at construction.
    """

    roots: tuple = field(default_factory=tuple)
    _vs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(
            r if isinstance(r, np.clongdouble) else complex(r) for r in self.roots))
        object.__setattr__(self, "_vs", tuple(varsigma(r) for r in self.roots))

    @property
    def degree(self) -> int:
        return len(self.roots)

    def __call__(self, lam):
        """The value at lam; an array of lam gives an array of its shape."""
        return self.at_varsigma(varsigma(lam))

    def at_varsigma(self, vs):
        """The value at the points whose varsigma values are vs: prod_j (vs - varsigma(lam_j)).

        Callers that evaluate many polynomials on one fixed point set keep
        the varsigma table of that set and read it here; ``__call__`` is this
        on varsigma(lam), so both give the same values bit for bit.
        """
        out = np.ones_like(vs, dtype=complex) if isinstance(vs, np.ndarray) else 1.0 + 0j
        for vr in self._vs:
            out = out * (vs - vr)
        return out

    def deriv(self, lam):
        """d/dlam of the evaluation (not the varsigma derivative).

        The products are out of place, so the dtype is the widest of lam's
        and the roots', as in ``__call__``."""
        vs = varsigma(lam)
        vals = [vs - vr for vr in self._vs]
        total = 0.0 + 0j
        for j in range(len(vals)):
            term = np.sinh(2 * lam)
            for k, v in enumerate(vals):
                if k != j:
                    term = term * v
            total = total + term
        return total

    def admissible_for(self, params: ModelParams, delta: float = VS_COLLISION) -> bool:
        """Roots must avoid the shifted-inhomogeneity grid in varsigma."""
        grid = [varsigma(params.xi_shifted(n, h))
                for n in range(1, params.N + 1) for h in (0, 1)]
        for vr in self._vs:
            if any(abs(vr - g) < delta for g in grid):
                return False
        return True


# ---------------------------------------------------------------------------
# Seeded sampling.  A counter-based generator keyed by (seed, *names) ensures
# a fixed case draws the same parameters regardless of execution order.
# ---------------------------------------------------------------------------

def rng_for(seed: int, *names) -> np.random.Generator:
    h = 0xCBF29CE484222325
    for name in names:
        for ch in str(name).encode() + b"/":
            h = ((h ^ ch) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, h], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_xi(N: int, rng: np.random.Generator, eta):
    """Draw inhomogeneities from [0.1, 1.5] + i[-0.2, 0.2] until generic."""
    for _ in range(200):
        xi = rng.uniform(0.1, 1.5, N) + 1j * rng.uniform(-0.2, 0.2, N)
        probe = ModelParams(N=N, eta=eta, xi=tuple(xi),
                            boundary_minus=_FREE_BOUNDARY, boundary_plus=_FREE_BOUNDARY)
        if probe.genericity_margin() > DELTA_MIN:
            return tuple(complex(x) for x in xi)
    raise RuntimeError("could not sample generic inhomogeneities")


def random_boundary(rng: np.random.Generator) -> BoundaryParams:
    def draw():
        return complex(rng.uniform(0.4, 1.4) + 1j * rng.uniform(-0.4, 0.4))

    sigma, kappa, tau = draw(), draw(), draw()
    return reparam_boundary(sigma, kappa, tau)


def random_params(N: int, seed: int = 0, *names, eta=None) -> ModelParams:
    """Seeded generic parameter set for an N-site chain."""
    rng = rng_for(seed, "params", N, *names)
    if eta is None:
        eta = complex(rng.uniform(0.5, 0.9) + 1j * rng.uniform(-0.25, 0.25))
    for _ in range(100):
        xi = random_xi(N, rng, eta)
        bm = random_boundary(rng)
        bp = random_boundary(rng)
        params = ModelParams(N=N, eta=eta, xi=xi, boundary_minus=bm, boundary_plus=bp)
        if params.is_generic() and abs(np.sinh(bm.sigma)) > DELTA_MIN \
                and abs(np.sinh(bp.sigma)) > DELTA_MIN:
            return params
    raise RuntimeError("could not sample a generic parameter set")


_FREE_BOUNDARY = BoundaryParams(sigma=1.0, kappa=0.5, tau=0.0, alpha=0.0, beta=0.0)
