"""Closed-form configuration counts and worst-case cost bounds.

Mono-cycle weaving over n independent aspects can describe 2^n * (1 + p_a)
configurations, p_a being the probability of duplicated advices.  A
cascade multiplies per-cycle contributions, discounting the aspects whose
productions later cycles require: prod over cycles of 2^(M(i) - R(i)).

Worst-case composition cost counts pairwise merges as
(2^nbRule - (nbRule + 1)) * card(App) per cycle; pointcut matching counts
combinations as nbJPoint^card(pointcut).  A multi-cycle split is never
worse than the mono-cycle bound on the union, which is what makes cascade
decomposition free in terms of response time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .language import AspectOfAssembly, Instantiate
from .weaver import Cascade


class DegenerateFit(Exception):
    """Least squares needs at least two distinct regressor values."""


@dataclass(frozen=True)
class CascadeShape:
    per_cycle_aas: tuple[int, ...]  # M(i)
    per_cycle_producers: tuple[int, ...]  # R(i)

    def __post_init__(self):
        if len(self.per_cycle_aas) != len(self.per_cycle_producers):
            raise ValueError("per-cycle lists differ in length")
        for m, r in zip(self.per_cycle_aas, self.per_cycle_producers):
            if not 0 <= r <= m:
                raise ValueError(f"producer count {r} out of range for {m} aspects")

    @property
    def cycles(self) -> int:
        return len(self.per_cycle_aas)


@dataclass(frozen=True)
class CostModelParams:
    a1: float
    a2: float
    merge_cost: float
    base_rules: int  # g0
    instances: tuple[tuple[int, float], ...]  # (w_i, p_i) pairs


def count_mono_configurations(n: int, p_a: float = 0.0) -> int | float:
    """``2**n * (1 + p_a)``: the exact ``2**n`` when ``p_a`` is 0, and an
    int whenever the count is integral."""
    if n < 0 or not 0.0 <= p_a <= 1.0:
        raise ValueError("need n >= 0 and p_a in [0, 1]")
    if p_a == 0.0:
        return 2**n
    try:
        count = math.ldexp(1.0 + p_a, n)
    except OverflowError:
        raise ValueError(f"2**{n} * (1 + {p_a}) configurations are too many to count as a float") from None
    return int(count) if count.is_integer() else count


def count_cascade_configurations(shape: CascadeShape) -> int:
    product = 1
    for m, r in zip(shape.per_cycle_aas, shape.per_cycle_producers):
        product *= 2 ** (m - r)
    return product


def nb_rules(aas) -> int:
    """Total advice rules, all three kinds included."""
    return sum(len(aa.rules) for aa in aas)


def nb_rules_per_cycle(cascade: Cascade) -> list[int]:
    return [nb_rules(rank) for rank in cascade.cycles]


def _pairwise_merge_count(nb_rule: int) -> int:
    return 2**nb_rule - (nb_rule + 1)


def merge_upper_bound_mono(nb_rule: int, card_app0: int = 1) -> int:
    if nb_rule < 0:
        raise ValueError("rule count must be non-negative")
    return max(0, _pairwise_merge_count(nb_rule)) * card_app0


def merge_upper_bound_multi(per_cycle) -> int:
    """Sum of per-cycle bounds; per_cycle holds (nb_rule, card_app) pairs."""
    return sum(merge_upper_bound_mono(n, card) for n, card in per_cycle)


def combination_count_mono(nb_jpoint: int, pointcut_sizes) -> int:
    product = 1
    for size in pointcut_sizes:
        product *= nb_jpoint**size
    return product


def combination_count_multi(nb_jpoint: int, pointcut_sizes) -> int:
    return sum(nb_jpoint**size for size in pointcut_sizes)


def evaluate_cost_model(params: CostModelParams) -> float:
    load = sum(w * p * params.merge_cost for w, p in params.instances)
    return params.a1 * params.base_rules * load + params.a2


def fit_cost_model(samples) -> tuple[float, float, float]:
    """Least-squares fit of duration = a1 * regressor + a2.

    Samples are (regressor, duration) pairs where the regressor is
    g0 * sum(w_i * p_i * M).  Returns (a1, a2, rms residual).
    """
    xs, ys = zip(*samples)
    n = len(xs)
    if n < 2:
        raise DegenerateFit("need at least two samples")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateFit("regressor is constant")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    a1 = sxy / sxx
    a2 = mean_y - a1 * mean_x
    residual = math.sqrt(sum((y - (a1 * x + a2)) ** 2 for x, y in zip(xs, ys)) / n)
    return a1, a2, residual


def fit_cost_model_from_rows(rows) -> tuple[float, float, float]:
    """Fit the duration model from benchmark rows or CSV dicts.

    The realized pairwise-merge count stands in for the analytic
    regressor, folding the per-merge cost into a1; the response is the
    measured merge-step duration in microseconds.
    """
    samples = [(float(r["merge_ops"]), float(r["merge_us"])) for r in rows]
    return fit_cost_model(samples)


# ---------------------------------------------------------------------------
# Shape derivation from parsed cascades


def _produces_match(earlier: AspectOfAssembly, later: AspectOfAssembly) -> bool:
    """Can some variable of ``later`` only be fed by ``earlier``'s products?

    Conservative static check: a pointcut variable counts as dependent when
    its pattern and filters accept the fresh-name shape (local name plus a
    counter digit) of one of ``earlier``'s instantiations.  Port parts are
    ignored, which only widens the dependency.
    """
    products = [
        (f"{rule.local_name}1", {"type": rule.type_name})
        for rule in earlier.rules
        if isinstance(rule, Instantiate)
    ]
    for pc in later.pointcut:
        for name, metadata in products:
            if pc.accepts_component(name, metadata):
                return True
    return False


def dependency_edges(cascade: Cascade) -> list[tuple[str, str]]:
    """(dependent, producer) aspect-name pairs across cycle ranks."""
    edges = []
    for j, later_rank in enumerate(cascade.cycles):
        for later in later_rank:
            for i in range(j):
                for earlier in cascade.cycles[i]:
                    if _produces_match(earlier, later):
                        edges.append((later.name, earlier.name))
    return edges


def derive_shape(cascade: Cascade) -> CascadeShape:
    """Count aspects per cycle and, per cycle, the producers that later
    aspects depend on."""
    edges = dependency_edges(cascade)
    producers = {producer for _, producer in edges}
    m = tuple(len(rank) for rank in cascade.cycles)
    r = tuple(sum(1 for aa in rank if aa.name in producers) for rank in cascade.cycles)
    return CascadeShape(m, r)


def dependency_groups(cascade: Cascade) -> list[set[str]]:
    """Weakly connected components of the dependency graph.

    In a mono-cycle collapse each group can only ship as a single fused
    aspect, so the describable configurations are 2^(number of groups).
    """
    names = [aa.name for rank in cascade.cycles for aa in rank]
    parent = {n: n for n in names}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for a, b in dependency_edges(cascade):
        parent[find(a)] = find(b)

    groups: dict[str, set[str]] = {}
    for n in names:
        groups.setdefault(find(n), set()).add(n)
    return sorted(groups.values(), key=lambda g: sorted(g)[0])


def mono_collapse_count(cascade: Cascade, p_a: float = 0.0) -> int | float:
    return count_mono_configurations(len(dependency_groups(cascade)), p_a)
