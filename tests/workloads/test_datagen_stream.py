"""Frozen stream: the synthetic tables are pinned byte for byte.

Every suite workflow's tables at scale 0.2 (seed 7), plus wf22 at scale 30,
hash to SHA-256 digests recorded from the per-draw generator (one
``rng.random()`` and one ``bisect_left`` per cell) before the vectorised
``ZipfSampler.sample_many`` replaced it.  A change to data generation that
moves any digest changes every downstream count, selection and benchmark
figure.  These digests must never be regenerated to make a change pass:
a mismatch means the change broke the stream, and the change is what needs
fixing.
"""

import hashlib

import pytest

from repro.workloads import case, suite

SEED = 7

#: workflow number -> digest of ``case(n).tables(0.2, SEED)``
SUITE_AT_0_2 = {
    1: "5ba1889be7af9719a18f26ff994f64edd3e1569419cc348789da0389456b2ed5",
    2: "a813224f23dd57a539798ea7bac74dd4da75ebc1c95301424153dc76c29e6cb6",
    3: "9f3f02c93c983dfd5179abd9f516da01da228a3ae57157931dc103915bcd7bdd",
    4: "99616747636713fba1868f526204ae6c557ffcb385b785a8aa0711313b0565d5",
    5: "e3416d7968d197ce2c1ac93713239e17ac3b030cd6d7ab222f17b3311c2db0f4",
    6: "acdc8166d358bfaf55869221767d46d7fe8089abed31d562f0470f66deae9263",
    7: "ec737192c81d95128b957fbd1aedeb846b9346b8774d4af3c8bd53edc3433b09",
    8: "9bc5d2f3dda5fa239cb9a86e7da8329a929d99254b4a4857251ebe455f204c1d",
    9: "302d4cf0c5a9474b3d23a96bbc7913608c7962c1ac6e20f98e7dafe673a227c5",
    10: "cf2ce2975b8701449d719ad16b63fd1c62e921fb519530ef26be1578871e5fea",
    11: "bf80ad4ab5b57854491d9d575626dfb96dca7da9a9d88ee29ec8065574569730",
    12: "6661f86fa1a88dd236298839adffd65070c8cc279f0e211016dfea964ecc5e32",
    13: "38979daf96d1a5327fe28a30e17141d26bc86f36fd8a36c15e2d8e0a32258538",
    14: "b4c0048d5a4061976203c77e4c1fc9be85094202a9ae6b8007b0a6de94493d14",
    15: "630f1771e049c57b556e56115d6ad01d23d42c9383640a1f5baaa425a20649c7",
    16: "ffcd377c05255204f401619e19d0cc8b8c61d9da49b5d789b98090464521b2b2",
    17: "8d47f405ef44f6d99c4ab4f7726cb59f37db3a0116f5b2e240b3f273c37d796e",
    18: "5d3a989835c0c4a5f5691d9311c7c712d416a166b28b5f908cdb22a10b893b53",
    19: "89573b34a911d67a4b98e23b6e6f1aaf7bb1330088cb15df2cd81a2bb05a5c54",
    20: "4d53849cf8861c3e02995652cc33bcd6b56b12d2192b73e7764b3613f29ebaa8",
    21: "a8c7ad95b45f9de69632e1a292292956d26b533505596b2c557fbc145ae49536",
    22: "da8565776bef882a67c04a2f13a4c474f65f25974c7df1d0a942b1df0085464e",
    23: "f5bf9bc2da65e8484dc0fc9bcce6d27eff4a0cce70db1281ecec1f08b2d8d2a9",
    24: "d701cbc014c801f5a39da94726039f2a52b55e9c3c9028da11e54e92ca5b4a36",
    25: "3c21274d538fa5305f0a6da6fdd77c9c635db25a1e355697ddf651773e673ff4",
    26: "32c597111b076cf67b0990f550cd6cd0f222f46453353c8b170c004c4466acdd",
    27: "fbd8b336e886375b2f685458744cf4e3b1e0f1d02cf7b7249bdb1a5c0780513d",
    28: "7a306eb19c5465862020a1d497d0a12bb2f312ed3d920d0d86fb5cb33e857f10",
    29: "e5bb6298a934feee6e9872bac48369de9d11388cbe1b8e085665273484e16bdd",
    30: "a47a086ab85d640046c08a30f1d193f962b3bac94a5f70fd8ef1c501890eb3d7",
}

#: digest of ``case(22).tables(30, SEED)``
WF22_AT_30 = "ca639c5b90dac1481408c746bc2e66745fc08d55b62ae425de8b96042e94e84d"


def table_digest(tables):
    """SHA-256 over every column, in relation and attribute order."""
    h = hashlib.sha256()
    for name, table in tables.items():
        for attr in table.attrs:
            col = table.columns[attr]
            h.update(f"{name}.{attr}:{len(col)}:".encode())
            h.update(",".join(map(str, col)).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_grid_covers_the_suite():
    assert sorted(SUITE_AT_0_2) == [c.number for c in suite()]


@pytest.mark.parametrize("number", sorted(SUITE_AT_0_2))
def test_suite_tables_at_scale_0_2(number):
    assert table_digest(case(number).tables(0.2, SEED)) == SUITE_AT_0_2[number]


def test_wf22_tables_at_scale_30():
    assert table_digest(case(22).tables(30, SEED)) == WF22_AT_30
