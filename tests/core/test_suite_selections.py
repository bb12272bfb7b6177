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
  frozenset of relation names in set order.

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
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.workloads import suite

#: workflow -> (sorted CSS lines, selection, CSS lines in catalog order)
DIGESTS = {
    1: ("4e028d269323ff13", "fb9fafe90fa51ef3", "28c2dedd9432bea1"),
    2: ("d008703fb869f876", "3112464abb019c79", "d008703fb869f876"),
    3: ("93d79dfae33ea6d8", "3625a8e38389e04f", "93142c24ecfc3a9c"),
    4: ("63c322af4e60b731", "4790ac89cd6b4e90", "f4e9e2cd0e3649d6"),
    5: ("cc785e3d490ce5d4", "cb36b9c8d33fd454", "f05f0a18fba3d11e"),
    6: ("89eba1dc39db6bba", "e5acd83c1ee2f596", "d62b1d715e57acde"),
    7: ("b7c38d7d2ef553ed", "449c8c0379d5b3df", "2849fd6c205a01a6"),
    8: ("e5c149ce71669f4e", "f5d8e5ba15b6f192", "835a8e33cbb814de"),
    9: ("dbafee8525b3ada2", "412c8c106e088cf4", "ee6a917e3d0f2573"),
    10: ("cd2395d41e92bc7e", "bcd170192de0c1ab", "99917af099be3a8b"),
    11: ("715ac48fe51ffec4", "b949960c28a280b5", "6183700aee4dca20"),
    12: ("ef8d13f3be8562de", "cfc63279d17db7f3", "9abfcde1289d605f"),
    13: ("bfcce1fe6bdeab7c", "662eb130f5af668b", "fc52d38b3413f55c"),
    14: ("34166d956ac343c1", "9bed3dec19b1506b", "f2742a5a31bc2c32"),
    15: ("fae598ed7176f581", "69b1699b1e8daef8", "b7428816cf6e4d9e"),
    16: ("71fedbc378ae8c43", "9843b75c4b57a8ec", "98ac33168530e881"),
    17: ("6fe8d8168c5f2241", "6a90941a17458017", "ef53366a72394566"),
    18: ("87d4d711118314da", "0f2525a6d7b114fe", "6e78682566efb2fa"),
    19: ("019d12b60afd90f5", "eb386bdf549be07f", "4b05073e67f5aca7"),
    20: ("be9b46409ba229e3", "ad6a992c2f642501", "87ddf8d384f87438"),
    21: ("be6b0981385d3d00", "0b695bd64f202f7d", "0c8319ff0e9ac4ef"),
    22: ("bd6630550e678d3c", "2103a092edb6a3e8", "414cb9776770c769"),
    23: ("904fb25b5e2ffe49", "4d0f6bf136775805", "6091265ead52fe4e"),
    24: ("963ac5605fa04aa9", "4b036d052eb07043", "78f9f26ea30ca45d"),
    25: ("98dc03baf7f18e37", "68f600bafca50c6d", "bde428f17c9fb3f6"),
    26: ("4734de2446cf8d80", "93ee474b2137e79d", "c2a860ac257df7d5"),
    27: ("f99bd33b4d36351e", "967c24376185a375", "7b1127087cd15569"),
    28: ("4670b1b58b61674e", "fab8989e02bf7cda", "bff94efba1806402"),
    29: ("ac2c9b59875d2811", "7a7d97a0172bf4f2", "06d489b065db3fc9"),
    30: ("b50221f60ccf6712", "3eec18285ca103ef", "92f265f5736701eb"),
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@functools.cache
def _identify(number: int) -> tuple[str, str, str]:
    case = next(case for case in suite() if case.number == number)
    pipeline = StatisticsPipeline(case.build())
    catalog = pipeline.catalog
    lines = [
        f"{css!r} {css.context!r}"
        for bucket in catalog.css.values()
        for css in bucket
    ]
    result = solve_ilp(build_problem(catalog, pipeline.cost_model()))
    selection = sorted(repr(stat) for stat in result.observed)
    selection += [repr(result.total_cost), result.method]
    return _digest(sorted(lines)), _digest(selection), _digest(lines)


@pytest.mark.parametrize("number", sorted(DIGESTS), ids=lambda n: f"wf{n}")
def test_catalog_and_selection_are_frozen(number):
    css, selection, _ = _identify(number)
    assert css == DIGESTS[number][0]
    assert selection == DIGESTS[number][1]


@pytest.mark.parametrize("number", sorted(DIGESTS), ids=lambda n: f"wf{n}")
def test_catalog_order_is_frozen(number):
    assert _identify(number)[2] == DIGESTS[number][2]


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
