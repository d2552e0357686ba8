import itertools
import math
import random

import pytest

from aaweave.analysis import (
    CascadeShape,
    CostModelParams,
    DegenerateFit,
    combination_count_mono,
    combination_count_multi,
    count_cascade_configurations,
    count_mono_configurations,
    dependency_groups,
    derive_shape,
    evaluate_cost_model,
    fit_cost_model,
    merge_upper_bound_mono,
    merge_upper_bound_multi,
    mono_collapse_count,
    nb_rules,
    nb_rules_per_cycle,
)
from aaweave.language import parse_aa


def test_mono_configuration_count():
    assert count_mono_configurations(2, 0.0) == 4
    assert count_mono_configurations(0, 0.0) == 1
    assert count_mono_configurations(3, 0.5) == 12


def test_cascade_configuration_count():
    assert count_cascade_configurations(CascadeShape((1, 2, 3), (1, 0, 0))) == 32
    assert count_cascade_configurations(CascadeShape((1,), (0,))) == 2
    assert count_cascade_configurations(CascadeShape((2, 2), (1, 0))) == 8


def test_single_cycle_matches_mono():
    assert count_cascade_configurations(CascadeShape((5,), (0,))) == count_mono_configurations(5, 0.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        CascadeShape((1,), (2,))
    with pytest.raises(ValueError):
        CascadeShape((1, 2), (0,))


def test_nb_rules(fixtures_dir):
    identity = parse_aa((fixtures_dir / "aa" / "identity_management.aa").read_text())
    assert nb_rules([identity]) == 7  # 2 instantiations + 5 arrows
    assert nb_rules([]) == 0


def test_nb_rules_continuum_corpus():
    from aaweave.sim import continuum_workload

    _, cascades = continuum_workload()
    assert nb_rules([aa for rank in cascades[0].cycles for aa in rank]) == 25


def test_nb_rules_per_cycle(scenario_cascade):
    assert nb_rules_per_cycle(scenario_cascade) == [4, 2, 7]


def test_merge_upper_bound_mono():
    assert merge_upper_bound_mono(2, 1) == 1
    assert merge_upper_bound_mono(3, 2) == 8
    assert merge_upper_bound_mono(0, 5) == 0


def test_merge_upper_bound_multi():
    assert merge_upper_bound_multi([(4, 3)]) == merge_upper_bound_mono(4, 3)
    assert merge_upper_bound_multi([(2, 1), (3, 2)]) == 9


def _splits(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _splits(total - head, parts - 1):
            yield (head,) + rest


def test_multi_bound_never_exceeds_mono_bound():
    # Same-base comparison: every 2- and 3-way split of up to 12 rules.
    for card in (1, 2, 5):
        for total in range(13):
            for parts in (2, 3):
                for split in _splits(total, parts):
                    multi = merge_upper_bound_multi([(r, card) for r in split])
                    mono = merge_upper_bound_mono(total, card)
                    assert multi <= mono, (split, card)


def test_combination_counts():
    assert combination_count_mono(3, [2]) == 9
    assert combination_count_multi(3, [1, 2]) == 12
    assert combination_count_mono(3, [1, 2]) == 27
    assert combination_count_mono(0, [3]) == 0
    assert combination_count_multi(0, [3]) == 0


def test_sum_form_below_product_form():
    for nb_jpoint in range(2, 11):
        for count in (2, 3):
            for sizes in itertools.product(range(1, 4), repeat=count):
                assert combination_count_multi(nb_jpoint, sizes) <= combination_count_mono(
                    nb_jpoint, sizes
                )


# ---------------------------------------------------------------------------
# cost model


def test_cost_model_collapses_to_intercept():
    params = CostModelParams(3.0, 7.0, 4.0, 2, ((3, 0.0), (5, 0.0)))
    assert evaluate_cost_model(params) == 7.0


def test_cost_model_arithmetic():
    params = CostModelParams(1.0, 0.0, 4.0, 2, ((3, 0.5),))
    assert evaluate_cost_model(params) == 12.0


def test_fit_recovers_known_parameters():
    rng = random.Random(3)
    a1, a2 = 0.75, 12.5
    samples = []
    for _ in range(40):
        x = rng.uniform(0, 100)
        samples.append((x, a1 * x + a2))
    got_a1, got_a2, residual = fit_cost_model(samples)
    assert abs(got_a1 - a1) / a1 < 1e-6
    assert abs(got_a2 - a2) / a2 < 1e-6
    assert residual < 1e-9
    # Squared residuals this large overflow a float; their rms does not.
    assert fit_cost_model([(1.0, 1e308), (2.0, -1e308), (3.0, 1e308)])[2] == pytest.approx(8**0.5 / 3 * 1e308)


def test_fit_degenerate():
    with pytest.raises(DegenerateFit):
        fit_cost_model([(1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(DegenerateFit):
        fit_cost_model([(1.0, 2.0)])
    with pytest.raises(DegenerateFit):
        fit_cost_model([])
    with pytest.raises(DegenerateFit):
        fit_cost_model([(1.0, math.nan), (2.0, 3.0)])


# ---------------------------------------------------------------------------
# shape derivation


def test_scenario_shape_and_counts(scenario_cascade):
    shape = derive_shape(scenario_cascade)
    assert shape.per_cycle_aas == (1, 2, 3)
    assert shape.per_cycle_producers == (1, 0, 0)
    assert count_cascade_configurations(shape) == 32
    assert mono_collapse_count(scenario_cascade) == 4


def test_scenario_dependency_groups(scenario_cascade):
    groups = dependency_groups(scenario_cascade)
    as_sorted = sorted(tuple(sorted(g)) for g in groups)
    assert as_sorted == [
        ("action_light", "action_shutter", "dec", "obs_rfid", "obs_switch"),
        ("action_lightlevel",),
    ]


def test_fit_from_bench_rows():
    from aaweave.analysis import fit_cost_model_from_rows
    from aaweave.sim import run_bench

    rows = run_bench(joinpoints=(20, 60, 100), p_values=(0.33,), repetitions=2)
    a1, a2, residual = fit_cost_model_from_rows(rows)
    assert a1 > 0
    assert residual >= 0.0


def test_fit_from_rows_recovers_synthetic_line():
    from aaweave.analysis import fit_cost_model_from_rows

    rows = [{"merge_ops": k, "merge_us": 3.5 * k + 40.0} for k in range(0, 50, 5)]
    a1, a2, residual = fit_cost_model_from_rows(rows)
    assert abs(a1 - 3.5) < 1e-9
    assert abs(a2 - 40.0) < 1e-9
    assert residual < 1e-9
