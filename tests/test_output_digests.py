"""Output bytes pinned across versions of the code.

Each case runs the CLI on small fixed inputs and compares the SHA-256 of
the bytes of its last command with a digest recorded when the case was
added. Criterion 09 checks that one version repeats itself; these cases
check that a refactor leaves every subcommand's output unchanged. The
inputs use coordinates and distances whose arithmetic is exact, so the
digests do not depend on the platform. A change that means to alter an
output re-records the digest and says why.
"""

import hashlib

import pytest

from mixbar.cli import main
from conftest import SIX_CELL

LOOP = "0,0,0\n1,0,0\n2,0,0\n2,1,0\n2,2,0\n1,2,0\n0,2,0\n0,1,0\n"

FILES = {
    # a loop of eight A points around the B point (1, 1), and one B point
    # outside it
    "a.csv": "0,0\n1,0\n2,0\n2,1\n2,2\n1,2\n0,2\n0,1\n",
    "b.csv": "1,1\n3,1\n",
    "pair.txt": SIX_CELL,
    # lower triangle with its zero diagonal; the first three rows are A
    "joint.txt": "0\n2 0\n2 2 0\n3 1 1 0\n1 3 3 2 0\n",
    # class 0 is the loop of a.csv; class 1 sits inside it in lab.csv and
    # ten units to the right in lab2.csv
    "lab.csv": LOOP + "1,1,1\n1.5,1,1\n1,1.5,1\n0.5,1,1\n",
    "lab2.csv": LOOP + "11,1,1\n11.5,1,1\n11,1.5,1\n10.5,1,1\n",
    "series.txt": "0 0 lab.csv\n0 1 lab2.csv\n",
    # the octahedron as class 0 around the origin as class 1: the origin
    # fills the octahedron's void, so degree 2 has a non-zero entry
    "oct.csv": "1,0,0,0\n-1,0,0,0\n0,1,0,0\n0,-1,0,0\n0,0,1,0\n0,0,-1,0\n0,0,0,1\n",
}

RIPS = ["mixup", "--a", "a.csv", "--b", "b.csv", "--rmax", "2.5", "--kmax", "1"]
EXPLICIT = ["mixup", "--filtration", "pair.txt"]
MATRIX = ["mixup", "--a", "joint.txt", "--metric", "matrix", "--split", "3", "--rmax", "3", "--kmax", "1"]
SVG = ["--degrees", "1", "--format", "svg"]

PROFILE = [
    "profile", "--a", "series.txt", "--rmax", "3", "--degrees", "1",
    "--subsample-a", "8", "--subsample-b", "3", "--format", "csv",
]
SUBSAMPLE = ["subsample", "--format", "json", "--subsample-a"]

# name: (commands run in order, SHA-256 of the stdout of the last one)
CASES = {
    "mixup_rips_json": ([RIPS], "bdb82754548e9a6294c0004094308d3b1c25d7525e0edbbd81c041fc7a40d180"),
    "mixup_rips_csv": ([RIPS + ["--format", "csv"]], "ac1ffe9422f39ab68121f3d5f83350145472770bd3b9756bd7c19d050ea1e99e"),
    "mixup_rips_svg": ([RIPS + SVG], "bdefe31af443bcf82c8d8932ccfe91af84e45b5d3e50910ef2869f286366d459"),
    "mixup_explicit_json": ([EXPLICIT], "8cfa9c8a3cb5779d3c265437ff859aff92a30b71556bd62e37ffd3983d290deb"),
    "mixup_explicit_csv": ([EXPLICIT + ["--format", "csv"]], "a241fdd287ea5be928606e0c26d036a3cdcabf7325d3831b1ab25ffe5e9302dc"),
    "mixup_explicit_svg": ([EXPLICIT + SVG], "8e63b05232b565883f947b14dd2c4f8605eb8f6a7689dd18e17da2c4d705eab5"),
    "mixup_matrix_json": ([MATRIX], "636693b478bde2c493b07c1c27c9245e77408289c8cde6a7e8906660fdfb5e5e"),
    "mixup_matrix_csv": ([MATRIX + ["--format", "csv"]], "645c93cc42f329a3ce5482e3e819270a5a3b349b23e1785e8d64d69053bc83d4"),
    "mixup_matrix_svg": ([MATRIX + SVG], "22a7f172b3e19b228304a26a81e348c27579bceeea4609f5f32407d64ff76827"),
    "pairwise_csv": (
        [["pairwise", "--a", "lab.csv", "--rmax", "3", "--format", "csv"]],
        "450d21e68426cb47daf3b85f44edb50c8579baca55981d0a209ca0cce9e21670",
    ),
    "pairwise_json": (
        [["pairwise", "--a", "lab.csv", "--rmax", "3", "--kmax", "1", "--degrees", "0,1"]],
        "5b579a2bcb0009d1312c11a2693e55e3c2b9c542f788a1e83dba8e6d5fa88649",
    ),
    "pairwise_json_d012": (
        [["pairwise", "--a", "oct.csv", "--rmax", "3", "--kmax", "2", "--degrees", "0,1,2"]],
        "2e9f5328a9f1a5697542291cf50fc170b82490c0ad7902eb24de075200fda473",
    ),
    "profile_csv": ([PROFILE], "cc204e4dfd1ea5b6262db58f4a88cbf8febbb20d88f6d30881b7f269ae838a2b"),
    "profile_json": (
        [PROFILE[:5] + ["--subsample-a", "8", "--subsample-b", "3", "--profile-aggregate", "mean"]],
        "8d8f045ba037e848f0df433c309ae197a42c0094745cd994a7d7d337638d57b8",
    ),
    "profile_json_d12": (
        [PROFILE[:5] + ["--kmax", "2", "--degrees", "1,2", "--subsample-a", "8", "--subsample-b", "3"]],
        "c204725a887dd8f8bc0d29212b898d20836312bb8b5f447e564a5642fa61985a",
    ),
    "subsample_json": (
        [SUBSAMPLE + ["3", "--a", "a.csv"]],
        "d52aa7baff6b37c07ce08c8696bca30f6bd20c347b74b38f9f72067b2f5859cd",
    ),
    "subsample_matrix_json": (
        [SUBSAMPLE + ["2", "--a", "joint.txt", "--metric", "matrix"]],
        "d3d128e97fc77b8a4fe094f94e0224e07851de7effe0db187d0c88fbcc02d9af",
    ),
    "plot": (
        [RIPS + ["--out", "res.json"], ["plot", "--results", "res.json", "--degrees", "1"]],
        "bdefe31af443bcf82c8d8932ccfe91af84e45b5d3e50910ef2869f286366d459",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recorded_digest(name, tmp_path, monkeypatch, capsys):
    for fname, text in FILES.items():
        (tmp_path / fname).write_text(text)
    monkeypatch.chdir(tmp_path)
    commands, digest = CASES[name]
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
