"""Byte identity as a tier-1 fact: every data file of every benchmark
operation, at two seeds, has the sha256 recorded in tests/data/digests.json.

A change that moves bytes on purpose rewrites the corpus with
``python tests/make_digests.py`` in the same diff, so the diff names the
files that moved.
"""

import json

import pytest

from make_digests import CORPUS, SEEDS, diff, digests, environment

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


def test_diff_names_the_largest_change_per_column(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, gain, peak in ((old, ("1.5", "2.0"), "15.0"),
                             (new, ("1.5", "2.25"), "14.5")):
        (root / "0" / "gain-x").mkdir(parents=True)
        (root / "0" / "gain-x" / "gain.csv").write_text(
            "freq_hz,gain_db\n" + "".join(f"{i},{g}\n"
                                        for i, g in enumerate(gain)))
        (root / "0" / "gain-x" / "metrics.txt").write_text(
            f"peak_gain_db = {peak}\nnum_dips = 2\n")
        (root / "0" / "gain-x" / "same.txt").write_text("a = 1\n")
    assert diff(old, new) == [
        "0/gain-x/gain.csv: freq_hz 0, gain_db 0.25",
        "0/gain-x/metrics.txt: peak_gain_db 0.5, num_dips 0"]
