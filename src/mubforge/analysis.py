"""Strong-unextendibility search, collision-entropy bounds, and KS contexts.

The strong-unextendibility test asks whether any unit vector is unbiased to
every basis in a set. After rotating the frame so the first basis is
computational, such a vector has the form (1/sqrt(d)) (1, x_1, .., x_{d-1})
with unimodular x_j, so the squared-deviation functional

    F(psi) = sum_{i, a} (|<psi|b_i^(a)>|^2 - 1/d)^2

is minimized over the (d-1)-torus of phases by seeded multistart L-BFGS
with an analytic gradient. A residual below the witness threshold is a
constructive extension witness; a floor well above it across all starts is
evidence (not proof) of strong unextendibility. The search is calibrated in
both directions by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from mubforge.bases import MubBasis, eigenbasis, unbiasedness_deviation
from mubforge.classes import ClassSet, CommutingClass
from mubforge.pauli import ProjectivePauli, commutes, multiply, pauli_from_string
from mubforge.search import keys_of_mask
from mubforge.unextendible import (
    UnextendibleSet,
    extendibility_check,
    extra_classes_within_union,
)

SATURATION_TOL = 1e-12
WITNESS_THRESHOLD = 1e-10
MUTUAL_UNBIASED_TOL = 1e-9

DEFAULT_STARTS = 1000
DEFAULT_MAX_ITERATIONS = 500
DEFAULT_F_TOL = 1e-14
_GRAD_TOL = 1e-12


def _check_unit(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state vector is not unit norm")
    return psi


def residual(psi: np.ndarray, bases: Sequence[MubBasis]) -> float:
    """Sum of squared unbiasedness deviations of psi against all bases."""
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
    squared unbiasedness deviations against the remaining bases.
    """

    bases: tuple[MubBasis, ...]
    d: int
    frame: np.ndarray  # rows of the first basis; maps torus vectors back
    conditions: np.ndarray  # conjugated rotated vectors of the other bases

    @classmethod
    def from_bases(cls, bases: Sequence[MubBasis]) -> "UnbiasedVectorProblem":
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
        conditions = np.vstack([(b.vectors @ w.T).conj() for b in bases[1:]])
        return cls(tuple(bases), d, bases[0].vectors, conditions)

    def torus_vector(self, theta: np.ndarray) -> np.ndarray:
        psi = np.empty(self.d, dtype=complex)
        psi[0] = 1.0 / math.sqrt(self.d)
        psi[1:] = np.exp(1j * np.asarray(theta)) / math.sqrt(self.d)
        return psi

    def vector(self, theta: np.ndarray) -> np.ndarray:
        """Candidate vector in the original frame, unit norm."""
        v = self.frame.T @ self.torus_vector(theta)
        return v / np.linalg.norm(v)

    def residual_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        psi = self.torus_vector(theta)
        o = self.conditions @ psi
        t = np.abs(o) ** 2 - 1.0 / self.d
        f = float(np.sum(t * t))
        weighted = (o.conjugate()[:, None] * self.conditions) * psi[None, :]
        grad = -4.0 * (t @ weighted.imag)
        return f, grad[1:]


@dataclass(frozen=True)
class SearchOutcome:
    """Best result of a multistart unbiased-vector search."""

    min_residual: float
    best_vector: np.ndarray
    starts: int
    seed: int
    converged_starts: int
    config: dict = field(default_factory=dict)


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
    (seed, start index), so a run that stops early after k starts matches a
    run of k starts. ``stop_below`` ends the search after the first start
    whose residual falls under the threshold, which is enough when only a
    witness is wanted.

    A result below WITNESS_THRESHOLD is a constructive extension witness; a
    floor far above it across all starts is evidence, not proof, that no
    unbiased vector exists.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    # imported here, not at module level: scipy.optimize is slow to import and
    # only the strong search needs it
    from scipy.optimize import minimize

    problem = UnbiasedVectorProblem.from_bases(bases)
    options = {"maxiter": max_iterations, "ftol": f_tol, "gtol": _GRAD_TOL}

    best_f = math.inf
    best_theta: Optional[np.ndarray] = None
    best_index = -1
    converged = 0
    executed = 0
    for k in range(starts):
        rng = np.random.default_rng([seed, k])
        theta0 = rng.uniform(0.0, 2.0 * math.pi, problem.d - 1)
        res = minimize(
            problem.residual_and_gradient,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options=options,
        )
        executed += 1
        if res.success:
            converged += 1
        if res.fun < best_f:
            best_f, best_theta, best_index = float(res.fun), np.asarray(res.x), k
        if stop_below is not None and best_f < stop_below:
            break

    best_vector = problem.vector(best_theta)
    config = {
        "starts_requested": starts,
        "stop_below": stop_below,
        "max_iterations": max_iterations,
        "f_tol": f_tol,
        "gradient_tol": _GRAD_TOL,
        "best_start_index": best_index,
    }
    return SearchOutcome(
        min_residual=residual(best_vector, bases),
        best_vector=best_vector,
        starts=executed,
        seed=seed,
        converged_starts=converged,
        config=config,
    )


def collision_entropy(b: MubBasis, psi: np.ndarray) -> float:
    """Base-2 collision entropy of the outcome distribution of psi in b."""
    psi = _check_unit(psi)
    probs = np.abs(b.vectors.conj() @ psi) ** 2
    s = float(np.sum(probs**2))
    return max(0.0, -math.log2(min(s, 1.0)))


def eur_bound(num_bases: int, d: int) -> float:
    """Collision-entropy lower bound for num_bases mutually unbiased bases."""
    return -math.log2((num_bases + d - 1) / (d * num_bases))


@dataclass(frozen=True)
class EurStateRecord:
    label: str
    per_basis: tuple[float, ...]
    average: float


@dataclass(frozen=True)
class EurReport:
    """Saturation record: every eigenstate of the extra class meets the bound."""

    bound: float
    states: tuple[EurStateRecord, ...]
    classes: ClassSet
    extra_class: CommutingClass

    @property
    def saturated(self) -> bool:
        return all(abs(s.average - self.bound) <= SATURATION_TOL for s in self.states)


def eur_check(classes: ClassSet, extra: CommutingClass) -> EurReport:
    """Verify collision-entropy saturation for the eigenstates of ``extra``.

    ``classes`` holds three two-qubit classes; ``extra`` must be a maximal
    class built from one element of each. Every joint eigenstate of the
    extra class then has collision entropy exactly one bit in each of the
    three eigenbases, saturating the bound.
    """
    if classes.n != 2 or len(classes) != 3:
        raise ValueError("expected three two-qubit classes")
    if extra.n != 2:
        raise ValueError("extra class acts on a different qubit count")
    for c in classes:
        if len(extra.elements & c.elements) != 1:
            raise ValueError("extra class must take exactly one element per class")
    bound = eur_bound(len(classes), 1 << classes.n)
    bases = [eigenbasis(c) for c in classes]
    states = eigenbasis(extra)
    records = []
    for k in range(states.d):
        values = tuple(collision_entropy(b, states.vectors[k]) for b in bases)
        records.append(
            EurStateRecord(states.labels[k], values, sum(values) / len(values))
        )
    report = EurReport(bound, tuple(records), classes, extra)
    if not report.saturated:
        worst = max(abs(s.average - bound) for s in records)
        raise ValueError(
            f"saturation failed: worst average deviation {worst:.3e} "
            f"exceeds {SATURATION_TOL}"
        )
    return report


@dataclass(frozen=True)
class KsContextSet:
    """Two partitions of one operator set into maximal commuting contexts."""

    n: int
    operators: tuple[ProjectivePauli, ...]
    original: tuple[CommutingClass, ...]
    alternate: tuple[CommutingClass, ...]

    @property
    def contexts(self) -> tuple[CommutingClass, ...]:
        return self.original + self.alternate


@dataclass(frozen=True)
class KsReport:
    signs: tuple[int, ...]
    minus_identity_count: int
    parity_odd: bool


def _context_sign(context: CommutingClass) -> int:
    """Ordered product of the Hermitian representatives as +/- identity.

    Members commute, so the outcome is order independent; that is asserted
    against the reversed ordering rather than assumed.
    """
    ordered = [p.hermitian() for p in context.sorted_elements]
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


def ks_alternate_partition(
    triple: Union[UnextendibleSet, ClassSet]
) -> KsContextSet:
    """Second partition of an unextendible two-qubit triple's nine operators.

    Each new context takes one commuting operator from each original class.
    Extendible triples do not admit such a partition and are rejected.
    """
    cs = triple.classes if isinstance(triple, UnextendibleSet) else triple
    if cs.n != 2 or len(cs) != 3:
        raise ValueError("expected a triple of two-qubit classes")
    if not extendibility_check(cs).is_empty:
        raise ValueError("triple is extendible; no alternate partition exists")
    union = cs.union_mask
    fresh = extra_classes_within_union(cs).found
    cover = 0
    for c in fresh:
        cover |= c.mask
    if len(fresh) != 3 or cover != union:
        raise ValueError("operators do not admit a second partition")
    for new in fresh:
        for orig in cs:
            if len(new.elements & orig.elements) != 1:
                raise ValueError("alternate context does not cross all classes")
    alternate = tuple(sorted(fresh, key=lambda c: c.sorted_elements[0].key))
    operators = tuple(
        ProjectivePauli.from_key(2, k) for k in sorted(keys_of_mask(union))
    )
    return KsContextSet(2, operators, tuple(cs.classes), alternate)


def ks_sign_verify(ctx: KsContextSet) -> KsReport:
    """Recompute all context signs and check the odd-parity contradiction."""
    if ctx.n != 2:
        raise ValueError("sign verification applies to two-qubit context sets")
    signs = tuple(_context_sign(c) for c in ctx.contexts)
    minus = sum(1 for s in signs if s < 0)
    return KsReport(
        signs=signs,
        minus_identity_count=minus,
        parity_odd=minus % 2 == 1,
    )


def _normalize_partition(part) -> list[frozenset[int]]:
    """Accept a ClassSet or raw element collections; no validity assumed."""
    if isinstance(part, ClassSet):
        return [c.element_keys for c in part]
    out = []
    for group in part:
        keys = set()
        for item in group:
            if isinstance(item, str):
                keys.add(pauli_from_string(item).key)
            else:
                keys.add(item.key)
        out.append(frozenset(keys))
    return out


def _is_commuting_closed(n: int, keys: frozenset[int]) -> bool:
    ops = [ProjectivePauli.from_key(n, k) for k in keys]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not commutes(ops[i], ops[j]):
                return False
            if ops[i].key ^ ops[j].key not in keys:
                return False
    return True


def d8_double_partition_verify(first, second) -> bool:
    """Check that two five-class partitions of 35 operators form double contexts.

    Both collections must be genuine disjoint commuting-class partitions of
    the same operator set, and the i-th classes must share a closed triple
    {u, v, uv} while every cross intersection has exactly one operator.
    Raises only when the two operator sets differ; any structural failure
    returns False.
    """
    n = 3
    a = _normalize_partition(first)
    b = _normalize_partition(second)
    ops_a = frozenset().union(*a) if a else frozenset()
    ops_b = frozenset().union(*b) if b else frozenset()
    if ops_a != ops_b:
        raise ValueError("the two partitions cover different operator sets")
    if len(a) != 5 or len(b) != 5:
        return False
    for part in (a, b):
        if sum(len(g) for g in part) != len(ops_a) or any(
            len(g) != 7 for g in part
        ):
            return False
        if any(not _is_commuting_closed(n, g) for g in part):
            return False
    for i in range(5):
        for j in range(5):
            inter = a[i] & b[j]
            want = 3 if i == j else 1
            if len(inter) != want:
                return False
            if i == j:
                u, v, w = sorted(inter)
                if u ^ v != w:
                    return False
    return True
