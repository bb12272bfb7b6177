"""Identification of the 30 suite workflows yields the same candidate
statistics sets and the same selection, whatever the string-hash seed.

The digests were computed once, before Algorithm 1 interned its
statistics, and are never regenerated: a digest that moves is a finding.
Per workflow they hash

- the sorted CSS lines (``repr`` plus rule context): the catalog as a set;
- the sorted reprs of the selected statistics, then the cost and method;
- the CSS lines in catalog order.  That order is ``build_problem``'s entry
  order and so HiGHS's column order, so it must not follow the string-hash
  seed; its digests were taken when ``_fk_reductions`` stopped walking a
  frozenset of relation names in set order;
- the sorted reprs of the statistics the §5.3 greedy (``solve_greedy``)
  observes on the same problem, then its cost and its number of rounds.
  These were taken while the greedy still relabelled every CSS entry from
  scratch each round, before it carried its labels across rounds.

CI runs this file under ``PYTHONHASHSEED=0`` and again under ``1``, and
:func:`test_catalog_order_is_the_same_under_every_hash_seed` compares two
seeds within one run.
"""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import StatisticsPipeline
from repro.core.greedy import solve_greedy
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.workloads import suite

#: workflow -> (sorted CSS lines, selection, CSS lines in catalog order,
#: the §5.3 greedy's selection and rounds)
DIGESTS = {
    1: ("4e028d269323ff13", "fb9fafe90fa51ef3", "28c2dedd9432bea1", "047f45553efd5904"),
    2: ("d008703fb869f876", "3112464abb019c79", "d008703fb869f876", "be513c2cf8450da7"),
    3: ("93d79dfae33ea6d8", "3625a8e38389e04f", "93142c24ecfc3a9c", "4c7ea24292ae0326"),
    4: ("63c322af4e60b731", "4790ac89cd6b4e90", "f4e9e2cd0e3649d6", "177d31baa6218de8"),
    5: ("cc785e3d490ce5d4", "cb36b9c8d33fd454", "f05f0a18fba3d11e", "0670359274d65bb9"),
    6: ("89eba1dc39db6bba", "e5acd83c1ee2f596", "d62b1d715e57acde", "94def662ea7ef21c"),
    7: ("b7c38d7d2ef553ed", "449c8c0379d5b3df", "2849fd6c205a01a6", "a74a65bb4ba0435c"),
    8: ("e5c149ce71669f4e", "f5d8e5ba15b6f192", "835a8e33cbb814de", "c7f3187aa6f0455e"),
    9: ("dbafee8525b3ada2", "412c8c106e088cf4", "ee6a917e3d0f2573", "553dcf396fd8a392"),
    10: ("cd2395d41e92bc7e", "bcd170192de0c1ab", "99917af099be3a8b", "19437bf1409fa511"),
    11: ("715ac48fe51ffec4", "b949960c28a280b5", "6183700aee4dca20", "d788769c44a7369f"),
    12: ("ef8d13f3be8562de", "cfc63279d17db7f3", "9abfcde1289d605f", "06ea317b0bea2a67"),
    13: ("bfcce1fe6bdeab7c", "662eb130f5af668b", "fc52d38b3413f55c", "d0e544f07b071d12"),
    14: ("34166d956ac343c1", "9bed3dec19b1506b", "f2742a5a31bc2c32", "78b6aa8268912d72"),
    15: ("fae598ed7176f581", "69b1699b1e8daef8", "b7428816cf6e4d9e", "d9144f1295854231"),
    16: ("71fedbc378ae8c43", "9843b75c4b57a8ec", "98ac33168530e881", "9287f8428cb6771c"),
    17: ("6fe8d8168c5f2241", "6a90941a17458017", "ef53366a72394566", "b0a80c496d57e8e5"),
    18: ("87d4d711118314da", "0f2525a6d7b114fe", "6e78682566efb2fa", "78804f3de025c8ff"),
    19: ("019d12b60afd90f5", "eb386bdf549be07f", "4b05073e67f5aca7", "cbb19cb6fac9a1a4"),
    20: ("be9b46409ba229e3", "ad6a992c2f642501", "87ddf8d384f87438", "87a74b9e63124877"),
    21: ("be6b0981385d3d00", "0b695bd64f202f7d", "0c8319ff0e9ac4ef", "ecde76d4f1cbc5f2"),
    22: ("bd6630550e678d3c", "2103a092edb6a3e8", "414cb9776770c769", "fd977c2b4606f8b8"),
    23: ("904fb25b5e2ffe49", "4d0f6bf136775805", "6091265ead52fe4e", "a755d604e3bfe54f"),
    24: ("963ac5605fa04aa9", "4b036d052eb07043", "78f9f26ea30ca45d", "771561e26942bbcd"),
    25: ("98dc03baf7f18e37", "68f600bafca50c6d", "bde428f17c9fb3f6", "d0bc1e7bc2bb3f6c"),
    26: ("4734de2446cf8d80", "93ee474b2137e79d", "c2a860ac257df7d5", "5618888670132b53"),
    27: ("f99bd33b4d36351e", "967c24376185a375", "7b1127087cd15569", "fd39c5bc5186b93f"),
    28: ("4670b1b58b61674e", "fab8989e02bf7cda", "bff94efba1806402", "269b1bb3dcdf9311"),
    29: ("ac2c9b59875d2811", "7a7d97a0172bf4f2", "06d489b065db3fc9", "7ad9df77a8d0346a"),
    30: ("b50221f60ccf6712", "3eec18285ca103ef", "92f265f5736701eb", "fa2e6123bbc03f86"),
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@functools.cache
def suite_catalog(number: int):
    """Workflow ``number``'s CSS catalog and cost model, as a cold
    ``StatisticsPipeline`` builds them."""
    case = next(case for case in suite() if case.number == number)
    pipeline = StatisticsPipeline(case.build())
    return pipeline.catalog, pipeline.cost_model()


@functools.cache
def _identify(number: int) -> tuple[str, str, str, str]:
    catalog, cost_model = suite_catalog(number)
    lines = [
        f"{css!r} {css.context!r}"
        for bucket in catalog.css.values()
        for css in bucket
    ]
    problem = build_problem(catalog, cost_model)
    result = solve_ilp(problem)
    selection = sorted(repr(stat) for stat in result.observed)
    selection += [repr(result.total_cost), result.method]
    greedy = solve_greedy(problem)
    rounds = sorted(repr(stat) for stat in greedy.observed)
    rounds += [repr(greedy.total_cost), repr(greedy.iterations)]
    return (_digest(sorted(lines)), _digest(selection), _digest(lines),
            _digest(rounds))


@pytest.mark.parametrize("number", sorted(DIGESTS), ids=lambda n: f"wf{n}")
def test_catalog_and_selection_are_frozen(number):
    css, selection, *_ = _identify(number)
    assert css == DIGESTS[number][0]
    assert selection == DIGESTS[number][1]


@pytest.mark.parametrize("number", sorted(DIGESTS), ids=lambda n: f"wf{n}")
def test_catalog_order_is_frozen(number):
    assert _identify(number)[2] == DIGESTS[number][2]


@pytest.mark.parametrize("number", sorted(DIGESTS), ids=lambda n: f"wf{n}")
def test_greedy_selection_and_rounds_are_frozen(number):
    assert _identify(number)[3] == DIGESTS[number][3]


def test_catalog_order_is_the_same_under_every_hash_seed():
    """wf21 and wf30 walk frozensets of relation names on the way to their
    catalogs; two processes with different string-hash seeds must still
    build them in one order."""
    root = Path(__file__).resolve().parents[2]
    script = (
        "from tests.core.test_suite_selections import _identify\n"
        "print(_identify(21)[2], _identify(30)[2])"
    )
    orders = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]))
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        orders.add(done.stdout)
    assert len(orders) == 1, orders
