"""Strong-unextendibility search, collision-entropy bounds, and KS contexts.

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
does at the floors. All starts in flight advance together as one numpy
batch whose rows never interact; see ``strong_unext_search`` for the
switch and the stopping rules. A residual below the
witness threshold is a constructive extension witness; a floor well above
it across all starts is evidence (not proof) of strong unextendibility. The
search is calibrated in both directions by the test suite. numpy is imported
by the functions that compute with arrays, so importing this module does not
load it.

Each call returns only what it computed: the search its best residual,
vector and start counts, ``eur_check`` the per-basis collision entropies of
each eigenstate (or an error when one misses the bound), and
``ks_alternate_partition`` the three alternate contexts, whose signs
``context_sign`` gives one by one. The settings a search ran with, the bound
and the sign parity are written into the certificates by
mubforge.certificates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

from mubforge.bases import MubBasis, eigenbasis, unbiasedness_deviation
from mubforge.classes import ClassSet, CommutingClass, class_from_mask
from mubforge.pauli import multiply, pauli_from_string
from mubforge.search import mask_of_keys
from mubforge.unextendible import extendibility_check, extra_classes_within_union

SATURATION_TOL = 1e-12
WITNESS_THRESHOLD = 1e-10
MUTUAL_UNBIASED_TOL = 1e-9

DEFAULT_STARTS = 1000
DEFAULT_MAX_ITERATIONS = 500
DEFAULT_F_TOL = 1e-14
GRADIENT_TOL = 1e-12

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
_BATCH_CAP = 1024  # the most starts in flight at once


def _check_unit(psi: np.ndarray) -> np.ndarray:
    import numpy as np

    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state vector is not unit norm")
    return psi


def residual(psi: np.ndarray, bases: Sequence[MubBasis]) -> float:
    """Sum of squared unbiasedness deviations of psi against all bases."""
    import numpy as np

    psi = _check_unit(psi)
    total = 0.0
    for b in bases:
        probs = np.abs(b.vectors.conj() @ psi) ** 2
        total += float(np.sum((probs - 1.0 / b.d) ** 2))
    return total


@dataclass(frozen=True)
class UnbiasedVectorProblem:
    """Torus-parameterized search for a vector unbiased to a basis set.

    After a frame rotation taking the first basis to the computational one,
    every candidate has the form (1/sqrt(d)) (1, e^(i t_1), .., e^(i t_{d-1})),
    which enforces unbiasedness to that basis exactly; the residual sums the
    squared unbiasedness deviations against the remaining bases. Row a of
    the m condition rows is the conjugated rotated vector c_a of another
    basis, so that <c_a|psi> = offset_a + sum_j conditions_aj e^(i t_j).
    """

    d: int
    frame: np.ndarray  # rows of the first basis; maps torus vectors back
    offset: np.ndarray  # (m,) first condition column over sqrt(d)
    conditions: np.ndarray  # (m, d-1) C: the other condition columns over sqrt(d)
    pair_conj: np.ndarray  # (m, (d-1)^2) P[a, jk] = C_aj conj(C_ak)
    pair: np.ndarray  # (m, (d-1)^2) Q[a, jk] = C_aj C_ak

    @classmethod
    def from_bases(cls, bases: Sequence[MubBasis]) -> "UnbiasedVectorProblem":
        import numpy as np

        if len(bases) < 2:
            raise ValueError("need at least two bases")
        d = bases[0].d
        for b in bases:
            if b.d != d:
                raise ValueError("bases have different dimensions")
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                dev = unbiasedness_deviation(bases[i], bases[j])
                if dev > MUTUAL_UNBIASED_TOL:
                    raise ValueError(
                        f"input bases {i} and {j} are not mutually unbiased "
                        f"(deviation {dev:.3e})"
                    )
        w = bases[0].vectors.conj()
        rows = np.vstack([(b.vectors @ w.T).conj() for b in bases[1:]]) / math.sqrt(d)
        c = rows[:, 1:]
        tables = (
            rows[:, 0],
            c,
            (c[:, :, None] * c.conj()[:, None, :]).reshape(len(c), -1),
            (c[:, :, None] * c[:, None, :]).reshape(len(c), -1),
        )
        for t in tables:
            t.flags.writeable = False
        return cls(d, bases[0].vectors, *tables)

    def torus_vector(self, theta: np.ndarray) -> np.ndarray:
        import numpy as np

        psi = np.empty(self.d, dtype=complex)
        psi[0] = 1.0 / math.sqrt(self.d)
        psi[1:] = np.exp(1j * np.asarray(theta)) / math.sqrt(self.d)
        return psi

    def vector(self, theta: np.ndarray) -> np.ndarray:
        """Candidate vector in the original frame, unit norm."""
        import numpy as np

        v = self.frame.T @ self.torus_vector(theta)
        return v / np.linalg.norm(v)

    def residual_and_gradient(
        self, theta: np.ndarray, newton: bool | np.ndarray = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residuals and the normal-equation terms at a batch of torus points.

        ``theta`` has shape (B, d-1), or (d-1,) for one point. With J =
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

        theta = np.asarray(theta, dtype=float)
        lead = theta.shape[:-1]
        n = self.d - 1
        rows = np.flatnonzero(np.broadcast_to(newton, lead))
        e = np.exp(1j * theta.reshape(-1, 1, n))
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
        return (
            r.reshape(lead + (-1,)),
            g.reshape(theta.shape),
            hess.reshape(lead + (n, n)),
        )


@dataclass(frozen=True)
class SearchOutcome:
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


def check_max_iterations(max_iterations) -> None:
    """Raise ValueError unless the step cap is an integer of at least 1."""
    if (
        isinstance(max_iterations, bool)
        or not isinstance(max_iterations, numbers.Integral)
        or max_iterations < 1
    ):
        raise ValueError(
            f"max_iterations must be an integer of at least 1, got {max_iterations!r}"
        )


def check_stop_below(stop_below) -> None:
    """Raise ValueError unless the early-stop bar is None or a finite number."""
    if stop_below is not None and (
        isinstance(stop_below, bool)
        or not isinstance(stop_below, numbers.Real)
        or not math.isfinite(stop_below)
    ):
        raise ValueError(
            f"stop_below must be a finite number or None, got {stop_below!r}"
        )


def strong_unext_search(
    bases: Sequence[MubBasis],
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    *,
    stop_below: Optional[float] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    f_tol: float = DEFAULT_F_TOL,
) -> SearchOutcome:
    """Seeded multistart minimization of the unbiasedness residual.

    Each start draws its initial phases from an independent stream keyed by
    (seed, start index) and runs its own Levenberg-Marquardt iteration: the
    damped Gauss-Newton step (J^T J + lambda I) delta = -J^T r is kept when
    it lowers F, after which lambda shrinks; otherwise lambda grows. A start
    has converged when an accepted step lowers F by at most ``f_tol``
    relative to max(F, 1), or when its gradient 2 J^T r is at most
    GRADIENT_TOL in every component; it also stops, unconverged, when lambda
    passes _LAMBDA_CEILING or after ``max_iterations`` steps.

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
    ``max_iterations``) and the damped full-Newton step converges fast;
    switching while lambda is still large costs witnesses on extendible
    sets instead. A singular damped system, possible only in the Newton
    phase, counts as a rejected step for its start alone.

    All starts in flight are iterated as one batch whose rows never
    interact, and each row's mode depends only on its own lambda, so every
    start's result is the same whatever else shares its batch, and a run
    that stops early after k starts matches a run of k starts.
    ``stop_below`` ends the search at the first start (by index)
    whose residual falls under the threshold, which is enough when only a
    witness is wanted; it must be None or a finite number.

    A result below WITNESS_THRESHOLD is a constructive extension witness; a
    floor far above it across all starts is evidence, not proof, that no
    unbiased vector exists.
    """
    import numpy as np

    if starts < 1:
        raise ValueError("need at least one start")
    check_max_iterations(max_iterations)
    check_stop_below(stop_below)
    if not (math.isfinite(f_tol) and f_tol >= 0):
        raise ValueError(f"f_tol must be finite and non-negative, got {f_tol!r}")
    problem = UnbiasedVectorProblem.from_bases(bases)
    final_f, final_theta, converged = _multistart(
        problem, starts, seed, stop_below, max_iterations, f_tol
    )
    best_index = int(np.argmin(final_f))
    best_vector = problem.vector(final_theta[best_index])
    return SearchOutcome(
        min_residual=residual(best_vector, bases),
        best_vector=best_vector,
        starts=len(final_f),
        converged_starts=int(np.count_nonzero(converged)),
        best_start_index=best_index,
    )


def _multistart(
    problem: UnbiasedVectorProblem,
    starts: int,
    seed: int,
    stop_below: Optional[float],
    max_iterations: int,
    f_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final F, angles and converged flag of each counted start.

    Starts join the batch in index order, in blocks of 1, 2, 4, ... while
    it holds fewer than _BATCH_CAP rows, and leave it when they stop, so a
    slow start never holds the next ones back. Once a start ends below
    ``stop_below``, later starts are dropped and only the earlier ones run
    on; the starts counted are those up to the first one below it.

    Each row keeps the (g, H) of its current point. A trial point is
    evaluated in Newton mode exactly when the lambda it would bring,
    max(lambda * _LAMBDA_DOWN, _LAMBDA_MIN), is at most _LAMBDA_NEWTON; a
    rejected trial leaves the row's (g, H) as they were.
    """
    import numpy as np

    n = problem.d - 1
    final_f = np.empty(starts)
    final_theta = np.empty((starts, n))
    converged = np.zeros(starts, dtype=bool)
    limit = starts
    admitted = 0
    block = 1
    identity = np.eye(n)
    # the rows in flight: row i runs start index[i]
    index = np.empty(0, dtype=np.intp)
    theta = np.empty((0, n))
    grad = np.empty((0, n))
    hess = np.empty((0, n, n))  # J^T J of each row, or its full Hessian
    f = np.empty(0)
    lam = np.empty(0)
    steps = np.empty(0, dtype=np.intp)
    while admitted < limit or index.size:
        room = min(block, _BATCH_CAP - index.size, limit - admitted)
        if room > 0:
            new = np.arange(admitted, admitted + room)
            theta0 = np.array([
                np.random.default_rng([seed, k]).uniform(0.0, 2.0 * math.pi, n)
                for k in new
            ])
            r0, grad0, hess0 = problem.residual_and_gradient(theta0)
            index = np.concatenate([index, new])
            theta = np.concatenate([theta, theta0])
            grad = np.concatenate([grad, grad0])
            hess = np.concatenate([hess, hess0])
            f = np.concatenate([f, np.einsum("bm,bm->b", r0, r0)])
            lam = np.concatenate([lam, np.full(room, _LAMBDA_START)])
            steps = np.concatenate([steps, np.zeros(room, dtype=np.intp)])
            admitted += room
            block *= 2

        flat = np.max(np.abs(2.0 * grad), axis=1) <= GRADIENT_TOL
        step, solved = _solve_rows(hess + lam[:, None, None] * identity, -grad)
        trial = theta + step
        lam_kept = np.maximum(lam * _LAMBDA_DOWN, _LAMBDA_MIN)
        r_trial, grad_trial, hess_trial = problem.residual_and_gradient(
            trial, lam_kept <= _LAMBDA_NEWTON
        )
        f_trial = np.einsum("bm,bm->b", r_trial, r_trial)
        better = (f_trial < f) & ~flat & solved
        settled = better & (f - f_trial <= f_tol * np.maximum(f, 1.0))
        theta[better] = trial[better]
        grad[better] = grad_trial[better]
        hess[better] = hess_trial[better]
        f = np.where(better, f_trial, f)
        lam = np.where(better, lam_kept, lam * _LAMBDA_UP)
        steps += 1

        done_converged = flat | settled
        done = done_converged | (lam > _LAMBDA_CEILING) | (steps >= max_iterations)
        if not done.any():
            continue
        ended = index[done]
        final_f[ended] = f[done]
        final_theta[ended] = theta[done]
        converged[ended] = done_converged[done]
        if stop_below is not None:
            hits = ended[f[done] < stop_below]
            if hits.size:
                limit = min(limit, int(hits.min()) + 1)
        keep = ~done & (index < limit)
        index, theta, grad, hess, f, lam, steps = (
            a[keep] for a in (index, theta, grad, hess, f, lam, steps)
        )
    return final_f[:limit], final_theta[:limit], converged[:limit]


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


def collision_entropy(b: MubBasis, psi: np.ndarray) -> float:
    """Base-2 collision entropy of the outcome distribution of psi in b."""
    import numpy as np

    psi = _check_unit(psi)
    probs = np.abs(b.vectors.conj() @ psi) ** 2
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
        states.labels[k]: tuple(collision_entropy(b, states.vectors[k]) for b in bases)
        for k in range(states.d)
    }
    worst = max(abs(sum(h) / len(h) - bound) for h in entropies.values())
    if worst > SATURATION_TOL:
        raise ValueError(
            f"saturation failed: worst average deviation {worst:.3e} "
            f"exceeds {SATURATION_TOL}"
        )
    return entropies


def context_sign(context: CommutingClass) -> int:
    """Ordered product of the Hermitian representatives as +/- identity.

    Members commute, so the outcome is order independent; that is asserted
    against the reversed ordering rather than assumed.
    """
    ordered = context.sorted_elements
    prod = ordered[0]
    for op in ordered[1:]:
        prod = multiply(prod, op)
    rev = ordered[-1]
    for op in reversed(ordered[:-1]):
        rev = multiply(rev, op)
    if prod != rev:
        raise ValueError("context product depends on ordering; not a context")
    if not prod.is_projective_identity or prod.phase % 2:
        raise ValueError("context product is not plus or minus identity")
    return 1 if prod.phase == 0 else -1


def ks_alternate_partition(cs: ClassSet) -> tuple[CommutingClass, ...]:
    """Second partition of an unextendible two-qubit triple's nine operators.

    Each of the three new contexts takes one commuting operator from each
    original class; they come ordered by their lowest operator key.
    Extendible triples do not admit such a partition and are rejected.
    """
    if cs.n != 2 or len(cs) != 3:
        raise ValueError("expected a triple of two-qubit classes")
    if extendibility_check(cs):
        raise ValueError("triple is extendible; no alternate partition exists")
    union = cs.union_mask
    fresh = extra_classes_within_union(cs)
    cover = 0
    for c in fresh:
        cover |= c.mask
    if len(fresh) != 3 or cover != union:
        raise ValueError("operators do not admit a second partition")
    for new in fresh:
        for orig in cs:
            if (new.mask & orig.mask).bit_count() != 1:
                raise ValueError("alternate context does not cross all classes")
    return tuple(sorted(fresh, key=lambda c: c.mask & -c.mask))


def _partition_masks(part) -> tuple[list[int], bool]:
    """Element masks of a ClassSet or of raw element collections.

    No validity is assumed. The flag tells whether any collection names the
    identity, which no class contains and no mask can hold.
    """
    if isinstance(part, ClassSet):
        return [c.mask for c in part], False
    masks, identity = [], False
    for group in part:
        keys = {
            pauli_from_string(i).key if isinstance(i, str) else i.key for i in group
        }
        identity |= 0 in keys
        masks.append(mask_of_keys(keys - {0}))
    return masks, identity


def d8_double_partition_verify(first, second) -> bool:
    """Check that two five-class partitions of 35 operators form double contexts.

    Both collections must be genuine disjoint commuting-class partitions of
    the same operator set, and the i-th classes must share three operators
    (as the meet of two classes, a closed triple {u, v, uv}) while every
    cross intersection has exactly one operator. Raises only when the two
    operator sets differ; any structural failure returns False.
    """
    a, a_identity = _partition_masks(first)
    b, b_identity = _partition_masks(second)
    ops_a = ops_b = 0
    for m in a:
        ops_a |= m
    for m in b:
        ops_b |= m
    if (ops_a, a_identity) != (ops_b, b_identity):
        raise ValueError("the two partitions cover different operator sets")
    if a_identity or len(a) != 5 or len(b) != 5:
        return False
    for part in (a, b):
        if sum(m.bit_count() for m in part) != ops_a.bit_count() or any(
            m.bit_count() != 7 for m in part
        ):
            return False
        try:
            for m in part:
                class_from_mask(3, m)
        except ValueError:
            return False
    return all(
        (a[i] & b[j]).bit_count() == (3 if i == j else 1)
        for i in range(5)
        for j in range(5)
    )
