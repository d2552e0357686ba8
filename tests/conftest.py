from pathlib import Path

import pytest

import reference_weave
from aaweave.cli import load_cascade_manifest
from aaweave.model import assembly_from_json
from aaweave.weaver import Memo, union, weave_cascade

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def hospital_base():
    return assembly_from_json((FIXTURES / "hospital_base.json").read_text())


@pytest.fixture(scope="session")
def mono_cascade():
    return load_cascade_manifest(str(FIXTURES / "mono.cascade.json"))


@pytest.fixture(scope="session")
def scenario_cascade():
    return load_cascade_manifest(str(FIXTURES / "scenario.cascade.json"))


@pytest.fixture(scope="session")
def assistance_cascade():
    return load_cascade_manifest(str(FIXTURES / "assistance.cascade.json"))


@pytest.fixture(scope="session")
def energy_cascade():
    return load_cascade_manifest(str(FIXTURES / "energy.cascade.json"))


@pytest.fixture(scope="session")
def weaves_as_the_spec():
    """A check that ``weave_cascade`` weaves ``cascades`` over ``base`` as
    ``reference_weave`` does, one-shot and on a fresh session memo: the
    same woven assembly, fresh ids and all, and the same report facts,
    with the same failure messages on both paths.  It returns the spec's
    facts, one per cycle woven."""

    def check(base, cascades):
        want = reference_weave.weave(base, union(*cascades).resolved())
        failures = []
        for memo in (None, Memo()):
            woven, reports = weave_cascade(base, cascades, memo)
            assert reference_weave.observed(woven, reports) == want
            failures.append([r.failure for r in reports])
        assert failures[0] == failures[1]
        return want[1]

    return check
