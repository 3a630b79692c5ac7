"""Frozen stdout digests of representative CLI runs.

Criterion 8 checks that repeated runs agree within one build; these hashes
check that output bytes stay the same across changes to the code.  A hash
here changes only when a change alters what a solver, the oracle or the
spider decomposition returns, which must then be a deliberate decision.
"""

import hashlib

import pytest

from priority_steiner import gen_random_pnwst, gen_random_pst, gen_tightness_pnwst
from priority_steiner.cli import main
from priority_steiner.fileio import write_instance

# The rate tree and marked set of demos/spider_tour.py.
SPIDER_TOUR_EDGES = [
    (1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 7), (3, 8), (4, 9),
    (5, 10), (5, 11), (7, 12), (7, 13), (7, 14), (11, 15), (11, 16),
    (13, 17), (13, 18), (14, 19),
]
SPIDER_TOUR_RATES = {
    1: 3, 2: 2, 3: 3, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 1, 10: 2,
    11: 2, 12: 2, 13: 3, 14: 1, 15: 1, 16: 2, 17: 1, 18: 1, 19: 1,
}
SPIDER_TOUR_MARKED = "1,2,6,9,11,12,15,16,18,19"

GOLDEN = {
    "solve-alg1":
        "f135068df3c463a48394af0936e3525174a0f155f066f674274abbc9e3d57da6",
    "solve-alg2":
        "9bc58ae90734f6439eb2bd7898ad2936ed9d88d183ef2d553a74f1e4fae5e8e6",
    "solve-krho":
        "9ffc726f9f3aa0b9efc4a84e8ddcfbb08f1281392c11a25c03fe214a74cd305c",
    "solve-best":
        "b8788f711ba798232879c0b6c53ceb9cdb1179d490f2c3d97bd0418c760ab9d0",
    "solve-pnwst":
        "e367ae65e37f89a9e873b5000acaa8a59836ad9a016f9c0326216f957ea996a3",
    "exact-pst":
        "713c3f4cfd9b34e0889d1db6f2b0ed0fe595a8a32b2ad20d61a9fe9c6481c305",
    "exact-pnwst":
        "b06b3a0284238f09c37be36a896c140e4a6ccf2fae5d3a72eeec4e186d30ede8",
    "decompose":
        "20a40ad19c0cc5a1fa6787f46454fc9069ee1ca87d03552545ae07e85892b929",
}


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, text):
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)

    # Criterion 8's files, then one multi-level desk instance per kind.
    put("det.pst", write_instance(gen_random_pst(12, 0.3, 3, 0.5, 31)))
    put("det.pnwst", write_instance(gen_tightness_pnwst(5)))
    put("desk.pst", write_instance(gen_random_pst(11, 0.35, 3, 0.5, 3)))
    put("desk.pnwst", write_instance(gen_random_pnwst(12, 0.3, 3, 0.3, 7)))
    lines = ["RATETREE 1", "root 1"]
    lines += [f"vertex {v} {r}" for v, r in sorted(SPIDER_TOUR_RATES.items())]
    lines += [f"edge {u} {v}" for u, v in SPIDER_TOUR_EDGES]
    put("tour.tree", "\n".join(lines) + "\n")
    return paths


def _argv(case, files):
    if case == "solve-pnwst":
        return ["solve", files["det.pnwst"], "--solver", "pnwst", "--json",
                "--exact", "--max-edges", "20"]
    if case.startswith("solve-"):
        return ["solve", files["det.pst"], "--solver", case[6:], "--json",
                "--exact"]
    if case == "exact-pst":
        return ["exact", files["desk.pst"], "--json"]
    if case == "exact-pnwst":
        return ["exact", files["desk.pnwst"], "--json"]
    return ["decompose", files["tour.tree"], "--marked", SPIDER_TOUR_MARKED]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_digest_frozen(case, files, capsys):
    assert main(_argv(case, files)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case], out
