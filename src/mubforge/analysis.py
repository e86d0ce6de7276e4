"""Strong-unextendibility search and collision-entropy bounds.

The strong-unextendibility test asks whether any unit vector is unbiased to
every basis in a set. After rotating the frame so the first basis is
computational, such a vector has the form (1/sqrt(d)) (1, x_1, .., x_{d-1})
with unimodular x_j, so the squared-deviation functional

    F(psi) = sum_{i, a} (|<psi|b_i^(a)>|^2 - 1/d)^2

is minimized over the (d-1)-torus of phases from many seeded starts. F is
a sum of squared residuals, so each start runs Levenberg-Marquardt (damped
Gauss-Newton) on its normal equations: one kernel returns the residuals,
J^T r and J^T J straight from fixed tables of condition-column products,
and the Jacobian J itself is never formed. Once a start has settled, the
same kernel call returns the full Hessian in place of J^T J, because
Gauss-Newton converges only linearly where the residual stays large, as it
does at the floors. The starts run in numpy batches whose rows never
interact; ``strong_unext_search`` states the batch rule, the switch and
the stopping rules. A residual below 1e-10 is a constructive
extension witness; a floor well above it across all starts is evidence
(not proof) of strong unextendibility. The search is calibrated in both
directions by the test suite. numpy is imported by the functions that
compute with arrays, so importing this module does not load it. Nor does
importing the package run this module or mubforge.bases: both load on
first use (see mubforge/__init__.py), so the rest of the package reads
their names as ``analysis.X`` when it runs, never with a ``from`` import
when it is imported.

Each call returns only what it computed: the search its best residual,
vector and start counts, and ``eur_check`` the per-basis collision
entropies of each eigenstate (or an error when one misses the bound). The
settings a search ran with and the bound are written into the certificates
by mubforge.certificates.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple, Optional, Sequence

from mubforge.bases import eigenbasis
from mubforge.classes import ClassSet, CommutingClass

SATURATION_TOL = 1e-12

DEFAULT_STARTS = 1000
# the most starts a search makes, so that every start index is one uint32
# word of its generator's seed
MAX_STARTS = 1 << 32
MAX_ITERATIONS = 500
F_TOL = 1e-14
GRADIENT_TOL = 1e-12
# the settings every search runs with, as strong certificates record them
SEARCH_SETTINGS = {
    "max_iterations": MAX_ITERATIONS, "f_tol": F_TOL, "gradient_tol": GRADIENT_TOL,
}

# Levenberg-Marquardt damping: start, shrink and growth factors, the floor
# that keeps J^T J + lambda I invertible, and the ceiling past which a start
# that no damped step improves is given up
_LAMBDA_START = 1e-3
_LAMBDA_DOWN = 0.1
_LAMBDA_UP = 10.0
_LAMBDA_MIN = 1e-12
_LAMBDA_CEILING = 1e16
# a trial point whose damping will be at most this once its step is kept
# gets the full Hessian in place of J^T J (three kept steps after the start)
_LAMBDA_NEWTON = 1e-6
# the starts of one batch: the cap ``strong_unext_search`` derives from
# these two
_BATCH_ROWS = 256
_BATCH_BYTES = 256 * 7 * 7 * 8

# numpy's SeedSequence (hash and mix constants, uint32 words) and PCG64
# (128-bit LCG multiplier, as 64-bit halves), which together draw the
# starting phases exactly as default_rng([seed, k]) does
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _check_unit(psi: np.ndarray) -> np.ndarray:
    import numpy as np

    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state vector is not unit norm")
    return psi


def residual(psi: np.ndarray, bases: Sequence[np.ndarray]) -> float:
    """Sum of squared unbiasedness deviations of psi against all bases."""
    import numpy as np

    psi = _check_unit(psi)
    total = 0.0
    for b in bases:
        probs = np.abs(b.conj() @ psi) ** 2
        total += float(np.sum((probs - 1.0 / len(b)) ** 2))
    return total


class UnbiasedVectorProblem(NamedTuple):
    """Torus-parameterized search for a vector unbiased to a class set's bases.

    The eigenbases of disjoint maximal classes are mutually unbiased by
    construction, so a ``ClassSet`` is all the problem needs and nothing
    re-measures that. After a frame rotation taking the first basis to the
    computational one, every candidate has the form
    (1/sqrt(d)) (1, e^(i t_1), .., e^(i t_{d-1})),
    which enforces unbiasedness to that basis exactly; the residual sums the
    squared unbiasedness deviations against the remaining bases. Row a of
    the m condition rows is the conjugated rotated vector c_a of another
    basis, so that <c_a|psi> = offset_a + sum_j conditions_aj e^(i t_j).
    """

    d: int
    bases: tuple[np.ndarray, ...]  # rows; the first maps torus vectors back
    offset: np.ndarray  # (m,) first condition column over sqrt(d)
    conditions: np.ndarray  # (m, d-1) C: the other condition columns over sqrt(d)
    pair_conj: np.ndarray  # (m, (d-1)^2) P[a, jk] = C_aj conj(C_ak)
    pair: np.ndarray  # (m, (d-1)^2) Q[a, jk] = C_aj C_ak

    @classmethod
    def from_classes(cls, cs: ClassSet) -> "UnbiasedVectorProblem":
        import numpy as np

        if len(cs) < 2:
            raise ValueError("need at least two classes")
        bases = tuple(eigenbasis(c) for c in cs)
        d = 1 << cs.n
        w = bases[0].conj()
        rows = np.vstack([(b @ w.T).conj() for b in bases[1:]]) / math.sqrt(d)
        c = rows[:, 1:]
        tables = (
            rows[:, 0],
            c,
            (c[:, :, None] * c.conj()[:, None, :]).reshape(len(c), -1),
            (c[:, :, None] * c[:, None, :]).reshape(len(c), -1),
        )
        for t in tables:
            t.flags.writeable = False
        return cls(d, bases, *tables)

    def vector(self, theta: np.ndarray) -> np.ndarray:
        """Candidate vector in the original frame, unit norm."""
        import numpy as np

        psi = np.empty(self.d, dtype=complex)
        psi[0] = 1.0 / math.sqrt(self.d)
        psi[1:] = np.exp(1j * np.asarray(theta)) / math.sqrt(self.d)
        v = self.bases[0].T @ psi
        return v / np.linalg.norm(v)

    def residual_and_gradient(
        self, theta: np.ndarray, newton: bool | np.ndarray = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residuals and the normal-equation terms at a batch of torus points.

        ``theta`` has shape (B, d-1), one torus point per row. With J =
        dr/dtheta the (m, d-1) Jacobian of the m residuals r_a = |<c_a|psi>|^2
        - 1/d, returns r of shape (B, m), g = J^T r of shape (B, d-1) and
        H = J^T J of shape (B, d-1, d-1); F = sum r^2 has gradient 2 g. With
        e = e^(i theta), o = offset + C e, u = conj(o) and w = |o|^2,

            g = -2 Im(e * ((u r) C)),
            H = 2 Re[(w P) * e e^H - (u^2 Q) * e e^T],

        so J itself is never formed. ``newton`` flags rows (a bool, or one
        per row) whose H is instead the full Hessian of F/2, the Jacobian of
        g: J^T J + sum_a r_a Hess(r_a), which is the same contraction with
        w + r in place of w, less diag(2 Re(e * ((u r) C))), a product that
        g already forms. An unflagged row is exactly the Gauss-Newton
        result. Every contraction is a stack of one-row products, which BLAS
        rounds the same way whatever the batch size (a plain batch product
        does not), so a row's result does not depend on the rest of the
        batch.
        """
        import numpy as np

        n = self.d - 1
        rows = np.flatnonzero(np.broadcast_to(newton, len(theta)))
        e = np.exp(1j * theta[:, None, :])
        u = (self.offset + (e @ self.conditions.T)[:, 0]).conj()
        w = u.real**2 + u.imag**2
        r = w - 1.0 / self.d
        s = e[:, 0] * ((u * r)[:, None, :] @ self.conditions)[:, 0]
        g = -2.0 * s.imag
        w[rows] += r[rows]
        # w is real, so it meets P's (re, im) pairs as one real table; the
        # phase products are then applied in place
        h = (w[:, None, :] @ self.pair_conj.view(float)).view(complex).reshape(-1, n, n)
        uq = ((u * u)[:, None, :] @ self.pair).reshape(-1, n, n)
        h *= e.conj()
        uq *= e
        h -= uq
        h *= e.transpose(0, 2, 1)
        hess = 2.0 * h.real
        diag = np.arange(n)
        hess[rows[:, None], diag, diag] -= 2.0 * s.real[rows]
        return r, g, hess


class SearchOutcome(NamedTuple):
    """Best result of a multistart unbiased-vector search.

    ``starts`` counts the starts made, fewer than requested when
    ``stop_below`` ended the search early; ``best_start_index`` is the start
    that reached ``min_residual``.
    """

    min_residual: float
    best_vector: np.ndarray
    starts: int
    converged_starts: int
    best_start_index: int


def as_float(value: numbers.Real) -> float:
    """A real number as a float; an integer past float's range is infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_stop_below(stop_below) -> None:
    """Raise ValueError unless the early-stop bar is None or a finite number."""
    if stop_below is not None and (
        isinstance(stop_below, bool)
        or not isinstance(stop_below, numbers.Real)
        or not math.isfinite(as_float(stop_below))
    ):
        raise ValueError(
            f"stop_below must be a finite number or None, got {stop_below!r}"
        )


def strong_unext_search(
    cs: ClassSet,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    *,
    stop_below: Optional[float] = None,
) -> SearchOutcome:
    """Seeded multistart minimization of the unbiasedness residual.

    The residual is taken over the eigenbases of the classes of ``cs``,
    which the search builds itself. The classes are disjoint, so the bases
    are mutually unbiased, and no pair of them is measured first.

    Each start draws its initial phases from an independent stream keyed by
    (seed, start index), the one numpy's default_rng([seed, k]) gives,
    though the draws are computed a batch of starts at a time without
    numpy.random. A start count that is not an integer raises TypeError,
    and one outside 1..MAX_STARTS ValueError, before anything is built; a
    negative seed raises ValueError. Each start runs
    its own Levenberg-Marquardt iteration: the damped Gauss-Newton step
    (J^T J + lambda I) delta = -J^T r is kept when it lowers F, after which
    lambda shrinks; otherwise lambda grows. A start
    has converged when an accepted step lowers F by at most F_TOL relative
    to max(F, 1), or when its gradient 2 J^T r is at most GRADIENT_TOL in
    every component; it also stops, unconverged, when lambda passes
    _LAMBDA_CEILING or after MAX_ITERATIONS steps. These are constants,
    read at call time. A start evaluates the residual kernel at most
    MAX_ITERATIONS + 1 times (its start point and one trial per step); the
    mubforge.certificates docstring turns this into the cost bound of the
    spot re-run of ``check``.

    The step runs on the normal equations alone: each start in flight keeps
    J^T r and a (d-1) x (d-1) matrix, which
    ``UnbiasedVectorProblem.residual_and_gradient`` computes without a
    Jacobian tensor, so what a start keeps between steps does not grow with
    the number of condition rows. The matrix is J^T J until the start has
    settled: a trial point whose lambda will be at most _LAMBDA_NEWTON once
    its step is kept (three kept steps after the start) gets the full
    Hessian of F/2, J^T J + sum_a r_a Hess(r_a), instead. The floors of the
    strong sets are degenerate minima with F far from zero, where
    Gauss-Newton only creeps (a few percent of starts ran to
    MAX_ITERATIONS) and the damped full-Newton step converges fast;
    switching while lambda is still large costs witnesses on extendible
    sets instead. A singular damped system, possible only in the Newton
    phase, counts as a rejected step for its start alone.

    Starts run in consecutive batches of cap = max(_BATCH_ROWS,
    _BATCH_BYTES // (8 (d-1)^2)) starts, 1393 at d = 4 and 256 from d = 8
    up, so small d, whose rows hold little state, gets more of them. Each
    batch draws its starting phases in one call and is iterated as one numpy
    batch whose rows never interact and leave it as they stop; each row's
    mode depends only on its own lambda, so every start's result is the same
    whatever else shares its batch, and a run that stops early after k
    starts matches a run of k starts. A batch makes at most MAX_ITERATIONS +
    1 kernel calls, and only one batch is held at a time, so memory does not
    grow with ``starts``. ``stop_below``, which must be None or a finite
    number, is read between batches: the starts counted end at the first one
    (by index) whose residual falls under it, and later batches are
    skipped, which is enough when only a witness is wanted. The best start
    is the lowest F, the earliest index on ties.

    A result below 1e-10 is a constructive extension witness; a floor far
    above it across all starts is evidence, not proof, that no
    unbiased vector exists.
    """
    import numpy as np

    if isinstance(starts, bool) or not isinstance(starts, numbers.Integral):
        raise TypeError(f"starts must be an integer, got {starts!r}")
    if not 1 <= starts <= MAX_STARTS:
        raise ValueError(f"starts must be in [1, {MAX_STARTS}], got {starts}")
    check_stop_below(stop_below)
    problem = UnbiasedVectorProblem.from_classes(cs)
    n = problem.d - 1
    cap = max(_BATCH_ROWS, _BATCH_BYTES // (8 * n * n))
    bar = -math.inf if stop_below is None else stop_below
    converged = 0
    for first in range(0, starts, cap):
        ks = np.arange(first, min(first + cap, starts))
        f, theta, done = _settle(problem, _start_angles(seed, ks, n))
        hits = np.flatnonzero(f < bar)
        if hits.size:
            f, theta, done = (a[: hits[0] + 1] for a in (f, theta, done))
        i = int(np.argmin(f))
        if first == 0 or f[i] < best_f:
            best_f, best_theta, best_index = f[i], theta[i], first + i
        converged += int(np.count_nonzero(done))
        if hits.size:
            break
    best_vector = problem.vector(best_theta)
    return SearchOutcome(
        min_residual=residual(best_vector, problem.bases),
        best_vector=best_vector,
        starts=first + len(f),
        converged_starts=converged,
        best_start_index=best_index,
    )


def _settle(
    problem: UnbiasedVectorProblem, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final F, angles and converged flag of each start of a batch.

    ``theta`` holds the starting phases, one row per start. Each row keeps
    the (g, H) of its current point. A trial point is evaluated in Newton
    mode exactly when the lambda it would bring, max(lambda * _LAMBDA_DOWN,
    _LAMBDA_MIN), is at most _LAMBDA_NEWTON; a rejected trial leaves the
    row's (g, H) as they were.
    """
    import numpy as np

    n = theta.shape[1]
    identity = np.eye(n)
    final_f = np.empty(len(theta))
    final_theta = np.empty_like(theta)
    converged = np.zeros(len(theta), dtype=bool)
    # the rows in flight: row i runs the batch's start index[i]
    index = np.arange(len(theta))
    r0, grad, hess = problem.residual_and_gradient(theta)  # hess: J^T J or the Hessian
    f = np.einsum("bm,bm->b", r0, r0)
    lam = np.full(len(theta), _LAMBDA_START)
    steps = 0
    while index.size:
        flat = np.max(np.abs(2.0 * grad), axis=1) <= GRADIENT_TOL
        step, solved = _solve_rows(hess + lam[:, None, None] * identity, -grad)
        trial = theta + step
        lam_kept = np.maximum(lam * _LAMBDA_DOWN, _LAMBDA_MIN)
        r_trial, grad_trial, hess_trial = problem.residual_and_gradient(
            trial, lam_kept <= _LAMBDA_NEWTON
        )
        f_trial = np.einsum("bm,bm->b", r_trial, r_trial)
        better = (f_trial < f) & ~flat & solved
        settled = better & (f - f_trial <= F_TOL * np.maximum(f, 1.0))
        theta[better] = trial[better]
        grad[better] = grad_trial[better]
        hess[better] = hess_trial[better]
        f = np.where(better, f_trial, f)
        lam = np.where(better, lam_kept, lam * _LAMBDA_UP)
        steps += 1

        done_converged = flat | settled
        done = done_converged | (lam > _LAMBDA_CEILING) | (steps >= MAX_ITERATIONS)
        if not done.any():
            continue
        ended = index[done]
        final_f[ended] = f[done]
        final_theta[ended] = theta[done]
        converged[ended] = done_converged[done]
        index, theta, grad, hess, f, lam = (
            a[~done] for a in (index, theta, grad, hess, f, lam)
        )
    return final_f, final_theta, converged


def _start_angles(seed: int, ks: np.ndarray, n: int) -> np.ndarray:
    """Initial phases of the starts ``ks``, one row of n per start.

    Row i is default_rng([seed, ks[i]]).uniform(0, 2 pi, n), bit for bit,
    computed for all the starts at once without numpy.random: the
    SeedSequence hashes the little-endian uint32 words of seed, then k, into
    a four-word pool and generates the PCG64 seed and increment from it. A
    start index is below MAX_STARTS, so k is one word. Each draw steps the
    128-bit state, held as two uint64 halves, and maps its XSL-RR output u
    to 2 pi ((u >> 11) 2^-53). Every constant is a numpy unsigned scalar,
    so no value-based cast can widen an array to float. A negative seed
    raises ValueError, as numpy does.
    """
    import numpy as np

    ks = np.asarray(ks, dtype=np.uint32)
    entropy = [np.full(len(ks), w, np.uint32) for w in _uint32_words(seed)]
    return _pcg64_uniform(_seed_state(entropy + [ks]), n)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; 0 is one word."""
    if value < 0:
        raise ValueError(f"expected a non-negative seed, got {value}")
    words = [value & _M32]
    while value >> 32:
        value >>= 32
        words.append(value & _M32)
    return words


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(8, uint32), one uint32 array per word."""
    import numpy as np

    shift = np.uint32(16)

    def hasher(hash_const, mult):
        # the constant advances with every call, whatever the data
        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * mult & _M32
            value = value * np.uint32(hash_const)
            return value ^ (value >> shift)

        return hashmix

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> shift)

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
        for i in range(4)
    ]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    output = hasher(_INIT_B, _MULT_B)
    return [output(pool[i % 4]) for i in range(8)]


def _pcg64_uniform(words: list[np.ndarray], n: int) -> np.ndarray:
    """n uniform [0, 2 pi) draws of the PCG64 seeded by eight uint32 words."""
    import numpy as np

    m32, s32 = np.uint64(_M32), np.uint64(32)
    one, s63 = np.uint64(1), np.uint64(63)
    mult_hi, mult_lo = np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO)
    b0, b1 = np.uint64(_PCG_MULT_LO & _M32), np.uint64(_PCG_MULT_LO >> 32)

    def add(a_hi, a_lo, b_hi, b_lo):
        lo = a_lo + b_lo
        return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo

    def step(hi, lo):
        # state * multiplier + inc mod 2^128; the high half of lo * mult_lo
        # comes from its four 32 x 32-bit partial products
        a0, a1 = lo & m32, lo >> s32
        p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
        mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
        lo_hi = p11 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
        return add(lo_hi + lo * mult_hi + hi * mult_lo, lo * mult_lo, inc_hi, inc_lo)

    # generate_state(4, uint64) pairs the words little-endian; the first two
    # halves are the initial state, the last two the stream (inc = 2 i + 1)
    w = [x.astype(np.uint64) for x in words]
    s_hi, s_lo, i_hi, i_lo = (w[j] | (w[j + 1] << s32) for j in range(0, 8, 2))
    inc_hi, inc_lo = (i_hi << one) | (i_lo >> s63), (i_lo << one) | one
    hi, lo = step(*add(inc_hi, inc_lo, s_hi, s_lo))
    out = np.empty((len(lo), n))
    for j in range(n):
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        u = (x >> rot) | (x << ((np.uint64(64) - rot) & s63))
        out[:, j] = (u >> np.uint64(11)).astype(float) * 2.0**-53
    return 0.0 + 2.0 * math.pi * out


def _solve_rows(normal: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each system of a (B, k, k) stack for its (B, k) right-hand side.

    Returns the solutions and whether each system was solved. A stacked
    solve fails as a whole when any one system is singular; the stack is
    then solved one system at a time, and a singular one gets a zero
    solution and False. Each system is solved on its own either way, so no
    row depends on the others.
    """
    import numpy as np

    try:
        return np.linalg.solve(normal, rhs[..., None])[..., 0], np.ones(len(rhs), bool)
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(rhs)
    solved = np.zeros(len(rhs), bool)
    for i in range(len(rhs)):
        try:
            out[i] = np.linalg.solve(normal[i : i + 1], rhs[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            continue
        solved[i] = True
    return out, solved


def collision_entropy(b: np.ndarray, psi: np.ndarray) -> float:
    """Base-2 collision entropy of the outcome distribution of psi in basis b."""
    import numpy as np

    psi = _check_unit(psi)
    probs = np.abs(b.conj() @ psi) ** 2
    s = float(np.sum(probs**2))
    return max(0.0, -math.log2(min(s, 1.0)))


def eur_bound(num_bases: int, d: int) -> float:
    """Collision-entropy lower bound for num_bases mutually unbiased bases."""
    return -math.log2((num_bases + d - 1) / (d * num_bases))


def eur_check(
    classes: ClassSet, extra: CommutingClass
) -> dict[str, tuple[float, ...]]:
    """Verify collision-entropy saturation for the eigenstates of ``extra``.

    ``classes`` holds three two-qubit classes; ``extra`` must be a maximal
    class built from one element of each. Every joint eigenstate of the
    extra class then has collision entropy exactly one bit in each of the
    three eigenbases, so its average meets ``eur_bound(3, 4)``. Returns each
    eigenstate's label, in eigenbasis order, with its per-basis entropies;
    raises ValueError unless every average is within SATURATION_TOL of the
    bound.
    """
    if classes.n != 2 or len(classes) != 3:
        raise ValueError("expected three two-qubit classes")
    if extra.n != 2:
        raise ValueError("extra class acts on a different qubit count")
    for c in classes:
        if (extra.mask & c.mask).bit_count() != 1:
            raise ValueError("extra class must take exactly one element per class")
    bound = eur_bound(len(classes), 1 << classes.n)
    bases = [eigenbasis(c) for c in classes]
    states = eigenbasis(extra)
    entropies = {
        format(k, "02b"): tuple(collision_entropy(b, state) for b in bases)
        for k, state in enumerate(states)
    }
    worst = max(abs(sum(h) / len(h) - bound) for h in entropies.values())
    if worst > SATURATION_TOL:
        raise ValueError(
            f"saturation failed: worst average deviation {worst:.3e} "
            f"exceeds {SATURATION_TOL}"
        )
    return entropies
