"""Byte identity as a tier-1 fact: every data file of every benchmark
operation, at two seeds, has the sha256 recorded in tests/data/digests.json.

A change that moves bytes on purpose rewrites the corpus with
``python tests/make_digests.py`` in the same diff, so the diff names the
files that moved.
"""

import json

import pytest

from make_digests import CORPUS, SEEDS, digests, environment

RECORDED = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_every_data_file_keeps_its_digest(seed, tmp_path):
    here = environment()
    recorded = {k: RECORDED[k] for k in here}
    if recorded != here:
        pytest.skip(f"the corpus was recorded on {recorded}, this is {here}; "
                    "its digests do not apply here")
    got = digests(seed, tmp_path)
    want = RECORDED["seeds"][str(seed)]
    assert got.keys() == want.keys()
    moved = [f"{op}/{name}" for op in want for name in want[op].keys()
             | got[op].keys() if want[op].get(name) != got[op].get(name)]
    assert not moved, f"data files whose bytes moved: {moved}"
