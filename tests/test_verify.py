"""The fast path against the rank oracle on hand-built explicit pairs.

Each pair exercises a case of the degree-0 union-find or of the edge
boundaries that validate() accepts.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from mixbar import mixup_barcode_indices, parse_explicit_pair, verify
from mixbar.cli import main
from mixbar.verify import check_instance, random_explicit_instance
from conftest import SIX_CELL

PAIRS = {
    # a loop with no vertices, killed in K before it is killed in L
    "empty_boundary_edge": """\
1 0 0.0 L
2 1 0.5 L
3 1 1.0 K
4 2 2.0 K 2
5 2 3.0 L 2
6 2 3.0 K 3
""",
    # edges 3 and 4 tie their vertices to the ground, which is older than
    # every vertex; edge 5 then closes a loop through the ground
    "one_id_edges": """\
1 0 0.0 L
2 0 0.0 L
3 0 0.0 K
4 1 1.0 L 1
5 1 1.0 K 3
6 1 2.0 L 2
7 1 2.0 L 1 2
8 2 3.0 K 4 6 7
""",
    # ties everywhere, L and K cells interleaved at the same values
    "equal_values": """\
1 0 0.0 L
2 0 0.0 K
3 0 0.0 L
4 0 0.0 L
5 1 1.0 L 1 3
6 1 1.0 K 1 2
7 1 1.0 K 2 3
8 1 1.0 L 3 4
9 1 1.0 L 1 4
10 2 1.0 K 5 6 7
11 2 1.0 L 5 8 9
""",
    # vertices 3 and 4 and edge 5 form a component of B alone, which joins
    # L only at edge 7
    "b_only_component": """\
1 0 0.0 L
2 0 0.0 L
3 0 0.0 K
4 0 0.0 K
5 1 1.0 K 3 4
6 1 2.0 L 1 2
7 1 3.0 K 2 3
""",
    # L vertex 2 joins the B vertex 3 first, then reaches vertex 1 through
    # it (d' = 5) before the L-edge 6 (d = 6)
    "l_vertex_joins_b_first": """\
1 0 0.0 L
2 0 0.0 L
3 0 0.0 K
4 1 1.0 K 2 3
5 1 2.0 K 1 3
6 1 3.0 L 1 2
7 2 4.0 K 4 5 6
""",
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_hand_built_pair_matches_oracle(name):
    fp = parse_explicit_pair(PAIRS[name])
    assert check_instance(fp, (0, 1, 2, 3)) == []


def test_l_vertex_joining_b_first_dies_early():
    fp = parse_explicit_pair(PAIRS["l_vertex_joins_b_first"])
    triples = set(map(tuple, mixup_barcode_indices(fp, 0).tolist()))
    assert triples == {(1, float("inf"), float("inf")), (2, 5, 6)}


def test_ground_kills_the_younger_vertex():
    fp = parse_explicit_pair(PAIRS["one_id_edges"])
    triples = set(map(tuple, mixup_barcode_indices(fp, 0).tolist()))
    # vertex 1 meets the ground at edge 4, vertex 2 at edge 6
    assert triples == {(1, 4, 4), (2, 6, 6)}
    assert mixup_barcode_indices(fp, 1).tolist() == [[7, 8, float("inf")]]


def test_random_graph_pairs_match_oracle():
    """The fuzzer's explicit complexes: 1-cells with zero, one or two
    boundary vertices, 2-cells on arbitrary 1-cycles, tied values."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        fp = random_explicit_instance(rng)
        assert check_instance(fp, (0, 1, 2)) == []


def test_fuzz_draws_rips_and_explicit_pairs(monkeypatch):
    from mixbar import verify

    drawn = []
    for name in ("random_rips_instance", "random_explicit_instance"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda rng, real=real, name=name: drawn.append(name) or real(rng))
    assert verify.run_fuzz(40, seed=0) == (40, [])
    assert set(drawn) == {"random_rips_instance", "random_explicit_instance"}


def shift_one_death(monkeypatch, column):
    """Make the fast path move `column` of its first id row with a finite
    death to that death + 1, as a faulty reduction would: 1 for d', 2 for d."""
    real = verify.compute_mixup_barcode

    def shifted(fp, k):
        ids = real(fp, k).index_triples.copy()
        finite = np.flatnonzero(ids[:, 2] < float("inf"))
        if len(finite):
            ids[finite[0], column] = ids[finite[0], 2] + 1
        return SimpleNamespace(index_triples=ids)

    monkeypatch.setattr(verify, "compute_mixup_barcode", shifted)


def test_verify_reports_a_death_the_oracle_does_not_have(tmp_path, monkeypatch, capsys):
    path = tmp_path / "six.txt"
    path.write_text(SIX_CELL)
    shift_one_death(monkeypatch, 2)
    assert main(["verify", "--filtration", str(path), "--degrees", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "degree 1: (b, d) multiset mismatch: fast [(1, 7), (2, 5)] vs oracle [(1, 6.0), (2, 5.0)]",
        "checked 1 instance(s): 1 mismatch(es)",
    ]


def test_verify_fuzz_names_the_instance_of_each_mismatch(monkeypatch, capsys):
    shift_one_death(monkeypatch, 2)
    assert main(["verify", "--instances", "6", "--degrees", "0,1"]) == 1
    *problems, summary = capsys.readouterr().out.splitlines()
    assert problems and summary == f"checked 6 instance(s): {len(problems)} mismatch(es)"
    for line in problems:
        i, rest = line.removeprefix("instance ").split(": ", 1)
        assert 0 <= int(i) < 6 and rest.startswith("degree ")


def test_verify_reports_a_triple_out_of_order(tmp_path, monkeypatch, capsys):
    path = tmp_path / "six.txt"
    path.write_text(SIX_CELL)
    shift_one_death(monkeypatch, 1)
    assert main(["verify", "--filtration", str(path), "--degrees", "1"]) == 1
    out = capsys.readouterr().out
    assert "degree 1: triple order violated: (1, 7, 6)\n" in out
    assert out.endswith("checked 1 instance(s): 2 mismatch(es)\n")
