import json

import numpy as np
import pytest

from mixbar.cli import main
from conftest import SIX_CELL


@pytest.fixture
def six_cell_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(SIX_CELL)
    return str(path)


@pytest.fixture
def square_center_files(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("0,0\n1,0\n0,1\n1,1\n")
    b = tmp_path / "b.csv"
    b.write_text("0.5,0.5\n")
    return str(a), str(b)


@pytest.fixture
def labeled_file(tmp_path):
    rows = ["0,0,0", "0.3,0,0", "0,0.3,0", "9,0,1", "9.3,0,1", "9,0.3,1"]
    path = tmp_path / "lab.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def manifest_file(tmp_path, labeled_file):
    path = tmp_path / "series.txt"
    path.write_text(f"0 0 {labeled_file}\n")
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mixup_explicit_json(six_cell_file, capsys):
    code, out, err = run(["mixup", "--filtration", six_cell_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "mixup"
    assert doc["cells"] == 6
    assert doc["cells_in_subcomplex"] == 4
    entry = doc["degrees"]["1"]
    births = sorted(t["birth"] for t in entry["triples"])
    assert births == [1.0, 2.0]
    index = sorted(
        (t["birth"], t["death_image"], t["death"]) for t in entry["index_triples"]
    )
    assert index == [(1, 4, 6), (2, 3, 5)]
    stats = entry["statistics"]
    assert stats["total_mixup"] == 4.0
    assert stats["clamp"] == 6.0  # defaults to the largest cell value


def test_mixup_point_clouds(square_center_files, capsys):
    a, b = square_center_files
    code, out, _ = run(
        ["mixup", "--a", a, "--b", b, "--rmax", "2.0", "--degrees", "0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    triples = doc["degrees"]["0"]["triples"]
    finite = [t for t in triples if t["death"] != "inf"]
    assert len(finite) == 3
    assert all(t["death_image"] == 0.7071067811865476 for t in finite)


def test_mixup_clamp_json(square_center_files, square_center_pair, capsys):
    """--clamp sets the horizon of every degree's statistics, and the JSON
    echoes it."""
    from mixbar import stats

    a, b = square_center_files
    code, out, _ = run(
        ["mixup", "--a", a, "--b", b, "--rmax", "2.0", "--clamp", "1.25", "--degrees", "0,1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    for k in (0, 1):
        bc = stats.compute_mixup_barcode(square_center_pair, k, 1.25)
        assert doc["degrees"][str(k)]["statistics"] == {
            "bars": len(bc.values),
            "total_mixup": stats.total_mixup(bc),
            "total_mixup_percentage": stats.total_mixup_percentage(bc),
            "mean_mixup_percentage": stats.mean_mixup_percentage(bc),
            "total_persistence": stats.total_persistence(bc),
            "total_image_persistence": stats.total_image_persistence(bc),
            "clamp": 1.25,
        }


def test_mixup_csv(six_cell_file, capsys):
    code, out, _ = run(
        ["mixup", "--filtration", six_cell_file, "--format", "csv", "--degrees", "1"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,birth,death_image,death,zero_persistence"
    assert len(lines) == 3


def test_mixup_svg_single_degree_only(six_cell_file, capsys):
    code, _, err = run(
        ["mixup", "--filtration", six_cell_file, "--format", "svg"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_mixup_svg(six_cell_file, capsys):
    code, out, _ = run(
        ["mixup", "--filtration", six_cell_file, "--format", "svg", "--degrees", "1"],
        capsys,
    )
    assert code == 0
    assert out.startswith("<svg ")


def test_missing_input_is_exit_2(capsys):
    code, _, err = run(["mixup"], capsys)
    assert code == 2
    assert "error:" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(["mixup", "--filtration", "/nonexistent/x.txt"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["mixup", "--filtration", "missing.txt"],
        ["mixup", "--a", "missing.csv", "--rmax", "1"],
        ["pairwise", "--a", "missing.csv", "--rmax", "1"],
        ["profile", "--a", "missing.txt", "--rmax", "1"],
        ["plot", "--results", "missing.json"],
    ],
)
def test_unreadable_input_file_exits_2(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read missing.")


def test_manifest_entry_that_cannot_be_read_exits_2(tmp_path, capsys):
    manifest = tmp_path / "series.txt"
    manifest.write_text("# layer step path\n0 0 missing.csv\n")
    code, _, err = run(["profile", "--a", str(manifest), "--rmax", "1"], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot read {tmp_path / 'missing.csv'}")


@pytest.mark.parametrize("command", ["pairwise", "profile"])
@pytest.mark.parametrize("given,missing", [(["--rmax", "1"], "--a"), (["--a", "x"], "--rmax")])
def test_stats_commands_require_a_and_rmax(command, given, missing, capsys):
    code, out, err = run([command] + given, capsys)
    assert code == 2
    assert out == ""
    assert f"the following arguments are required: {missing}" in err


def test_cell_budget_exits_2(square_center_files, monkeypatch, capsys):
    """The 5 x 5 matrix fits the budget alone, and 25 cells are far below
    what it holds alone, but the build is charged for both."""
    from mixbar import cloud

    monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", 9 * 5**2 + 950 * 20)
    a, b = square_center_files
    code, out, err = run(["mixup", "--a", a, "--b", b, "--rmax", "2.0", "--kmax", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: the Rips build of 5 points and 25 cells counted so far is over the budget of "
        "19,225 bytes (mixbar.cloud.MAX_MATRIX_BYTES); lower --rmax or --kmax\n"
    )


@pytest.mark.parametrize("clamp", ["nan", "inf", "-inf"])
def test_non_finite_clamp_exits_2_before_any_build(
    clamp, square_center_files, labeled_file, monkeypatch, capsys
):
    from mixbar import cli, stats

    def no_build(*args, **kwargs):
        raise AssertionError("built a Rips pair")

    monkeypatch.setattr(cli, "build_rips_pair", no_build)
    monkeypatch.setattr(stats, "rips_pair_from_distances", no_build)
    a, b = square_center_files
    for args in (
        ["mixup", "--a", a, "--b", b, "--rmax", "2", "--degrees", "0"],
        ["pairwise", "--a", labeled_file, "--rmax", "12"],
    ):
        code, out, err = run(args + [f"--clamp={clamp}"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: clamp must be a finite number, got {float(clamp)}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_filtration_value_exits_2(value, tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(f"1 0 0.0 L\n2 0 1.0 K\n3 1 {value} K 1 2\n")
    code, out, err = run(["mixup", "--filtration", str(pair)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cell 3: value {value} is not finite\n"


def test_unknown_flag_is_exit_2(six_cell_file, capsys):
    code = main(["mixup", "--filtration", six_cell_file, "--frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_degrees_beyond_kmax_rejected(square_center_files, capsys):
    a, b = square_center_files
    code, _, err = run(
        ["mixup", "--a", a, "--b", b, "--rmax", "2.0", "--kmax", "1", "--degrees", "2"],
        capsys,
    )
    assert code == 2
    assert "kmax" in err


def test_degrees_beyond_explicit_dimension_give_empty_entry(six_cell_file, capsys):
    code, out, _ = run(
        ["mixup", "--filtration", six_cell_file, "--degrees", "5"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"]["5"]["triples"] == []
    assert doc["degrees"]["5"]["statistics"]["total_mixup"] == 0.0


def test_outputs_are_byte_identical(square_center_files, tmp_path, capsys):
    a, b = square_center_files
    args = ["mixup", "--a", a, "--b", b, "--rmax", "2.0"]
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main(args + ["--out", str(one)]) == 0
    assert main(args + ["--out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


def test_out_writes_file(six_cell_file, tmp_path, capsys):
    target = tmp_path / "res.json"
    code, out, _ = run(
        ["mixup", "--filtration", six_cell_file, "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    json.loads(target.read_text())


def test_plot_roundtrip(six_cell_file, tmp_path, capsys):
    res = tmp_path / "res.json"
    assert main(["mixup", "--filtration", six_cell_file, "--out", str(res)]) == 0
    code, out, _ = run(["plot", "--results", str(res), "--degrees", "1"], capsys)
    assert code == 0
    assert out.startswith("<svg ")
    assert "degree 1 mixup barcode" in out


def test_plot_missing_degree(six_cell_file, tmp_path, capsys):
    res = tmp_path / "res.json"
    assert main(["mixup", "--filtration", six_cell_file, "--out", str(res)]) == 0
    code, _, err = run(["plot", "--results", str(res), "--degrees", "7"], capsys)
    assert code == 2
    assert "degree 7" in err


def test_plot_rejects_foreign_json(tmp_path, capsys):
    res = tmp_path / "other.json"
    res.write_text('{"command": "pairwise"}\n')
    code, _, err = run(["plot", "--results", str(res)], capsys)
    assert code == 2


def _set(path, value):
    """Edit at path (keys and list positions) of a mixup result."""
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        if value is KeyError:
            del data[last]
        else:
            data[last] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(("degrees", "1", "triples", 0, "death_image"), KeyError), "KeyError 'death_image'"),
        (_set(("degrees", "1", "triples", 0, "birth"), "one"), "not a number: 'one'"),
        (_set(("degrees", "1", "triples", 0, "birth"), True), "not a number: True"),
        (_set(("degrees", "1", "triples"), {"birth": 0.0}), "triples is not a list"),
        (_set(("degrees", "1", "statistics"), []), "AttributeError"),
        (lambda data: data["degrees"].update({"one": data["degrees"]["1"]}), "ValueError"),
        (_set(("degrees", "1", "statistics", "clamp"), "inf"), "clamp must be a finite number"),
        (_set(("degrees", "1", "statistics", "clamp"), float("nan")), "clamp must be a finite number"),
        (_set(("degrees", "1", "statistics", "clamp"), "nan"), "not a number: 'nan'"),
        (_set(("degrees", "1", "triples", 0, "death"), 0.5), "triple out of order"),
    ],
    ids=[
        "missing-death-image", "string-value", "bool-value", "triples-object", "statistics-list",
        "degree-key-not-int", "clamp-inf", "clamp-nan", "clamp-nan-string", "out-of-order",
    ],
)
def test_plot_rejects_malformed_results(edit, message, six_cell_file, tmp_path, capsys):
    res = tmp_path / "res.json"
    assert main(["mixup", "--filtration", six_cell_file, "--out", str(res)]) == 0
    data = json.loads(res.read_text())
    edit(data)
    res.write_text(json.dumps(data))
    code, out, err = run(["plot", "--results", str(res), "--degrees", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_subsample_csv(tmp_path, capsys):
    cloud = tmp_path / "pts.csv"
    cloud.write_text("0\n10\n20\n")
    code, out, _ = run(
        ["subsample", "--a", str(cloud), "--subsample-a", "1"], capsys
    )
    assert code == 0
    assert out == "1\n"


def test_subsample_json(tmp_path, capsys):
    cloud = tmp_path / "pts.csv"
    cloud.write_text("0\n10\n20\n")
    code, out, _ = run(
        ["subsample", "--a", str(cloud), "--subsample-a", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["indices"]) == 2
    assert doc["cost"] >= 0.0


def test_subsample_budget_exits_2_before_any_distance(tmp_path, monkeypatch, capsys):
    """Three points against a budget that the matrix of two fits: k-medoids
    stops with the budget's input error, and a size that covers every point
    keeps them all; neither computes a distance."""
    from mixbar import cloud

    def no_distances(*args, **kwargs):
        raise AssertionError("computed distances")

    monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", 9 * 3 * 3 - 1)
    monkeypatch.setattr(cloud, "pairwise_distances", no_distances)
    path = tmp_path / "pts.csv"
    path.write_text("0\n10\n20\n")
    code, out, err = run(["subsample", "--a", str(path), "--subsample-a", "1"], capsys)
    assert code == 2 and out == ""
    assert err == (
        "error: k-medoids for --subsample-a would choose among 3 points, whose distance "
        "matrix is over the budget of 80 bytes (mixbar.cloud.MAX_MATRIX_BYTES); use fewer "
        "points, or set --subsample-a to at least 3 to keep them all\n"
    )
    code, out, _ = run(
        ["subsample", "--a", str(path), "--subsample-a", "3", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["indices"] == [0, 1, 2] and doc["cost"] == 0.0


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize("command", ["subsample", "pairwise", "profile"])
def test_subsample_size_below_1_exits_2_before_any_read(
    command, size, tmp_path, labeled_file, manifest_file, monkeypatch, capsys
):
    """subsample applies the size rule of pairwise and profile, with its
    message, before its input is read: a missing file is not reported, and
    a file that exists gets no distance computed."""
    from mixbar import cloud

    def no_distances(*args, **kwargs):
        raise AssertionError("computed distances")

    monkeypatch.setattr(cloud, "pairwise_distances", no_distances)
    points = tmp_path / "pts.csv"
    points.write_text("0\n10\n20\n")
    path = {"subsample": str(points), "pairwise": labeled_file, "profile": manifest_file}[command]
    rips = [] if command == "subsample" else ["--rmax", "12", "--degrees", "1"]
    for a in (str(tmp_path / "missing.csv"), path):
        code, out, err = run([command, "--a", a, *rips, "--subsample-a", size], capsys)
        assert (code, out, err) == (2, "", "error: subsample sizes must be at least 1\n")


def test_pairwise_csv(labeled_file, capsys):
    code, out, _ = run(
        [
            "pairwise", "--a", labeled_file, "--rmax", "12", "--kmax", "1",
            "--degrees", "0", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,0,1"
    assert lines[1].startswith("0,")
    assert lines[2].startswith("1,")


@pytest.mark.parametrize(
    "labels", [("1e19", "2e19"), ("0", "9223372036854775808"), ("-1e19", "0"), ("inf", "0")]
)
def test_pairwise_rejects_labels_beyond_int64(labels, tmp_path, capsys):
    """Labels the int64 cast would wrap, which merged classes silently."""
    rows = [f"{x},0,{labels[i >= 3]}" for i, x in enumerate((0, 0.3, 0.6, 9, 9.3, 9.6))]
    path = tmp_path / "lab.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, err = run(
        ["pairwise", "--a", str(path), "--rmax", "12", "--kmax", "0", "--format", "csv"], capsys
    )
    assert code == 2 and out == ""
    assert "64-bit range" in err


def test_profile_manifest(tmp_path, capsys):
    def ring(n, radius, shift, phase=0.0):
        th = np.linspace(0, 2 * np.pi, n, endpoint=False) + phase
        return np.c_[radius * np.cos(th) + shift, radius * np.sin(th)]

    for step, shift in enumerate((0.0, 8.0)):
        pts = np.vstack([ring(16, 1.0, 0.0), ring(8, 0.8, shift, phase=0.2)])
        labels = [0] * 16 + [1] * 8
        lines = [f"{x},{y},{l}" for (x, y), l in zip(pts, labels)]
        (tmp_path / f"s{step}.csv").write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "series.txt"
    manifest.write_text("0 0 s0.csv\n0 1 s1.csv\n")
    code, out, _ = run(
        [
            "profile", "--a", str(manifest), "--rmax", "3", "--kmax", "1",
            "--degrees", "0", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "layer,0,1"
    _, v0, v1 = lines[1].split(",")
    assert float(v0) > float(v1)


def test_profile_rejects_bad_manifest(tmp_path, capsys):
    manifest = tmp_path / "series.txt"
    manifest.write_text("0 zero path.csv\n")
    code, _, err = run(["profile", "--a", str(manifest), "--rmax", "1"], capsys)
    assert code == 2


def test_verify_fuzz(capsys):
    code, out, _ = run(["verify", "--instances", "25", "--seed", "5"], capsys)
    assert code == 0
    assert "all match" in out


def test_verify_rejects_negative_seed(capsys):
    code, out, err = run(["verify", "--instances", "2", "--degrees", "0", "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "--seed" in err


def test_verify_explicit_input(six_cell_file, capsys):
    code, out, _ = run(
        ["verify", "--filtration", six_cell_file, "--degrees", "1"], capsys
    )
    assert code == 0
    assert "checked 1 instance(s)" in out


def test_verify_out_writes_file(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code, out, _ = run(["verify", "--instances", "3", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "checked 3 instance(s): all match\n"


def base_args(command, labeled_file, manifest_file):
    return {
        "pairwise": ["pairwise", "--a", labeled_file, "--rmax", "12", "--kmax", "0"],
        "profile": [
            "profile", "--a", manifest_file, "--rmax", "12", "--kmax", "0", "--degrees", "0",
        ],
        "subsample": ["subsample", "--a", labeled_file, "--subsample-a", "1"],
        "verify": ["verify", "--instances", "2"],
    }[command]


@pytest.mark.parametrize(
    "command,extra",
    [
        ("pairwise", ["--b", "b.csv"]),
        ("pairwise", ["--filtration", "pair.txt"]),
        ("pairwise", ["--split", "1"]),
        ("pairwise", ["--seed", "1"]),
        ("pairwise", ["--metric", "matrix"]),
        ("profile", ["--b", "b.csv"]),
        ("profile", ["--filtration", "pair.txt"]),
        ("profile", ["--split", "1"]),
        ("profile", ["--seed", "1"]),
        ("profile", ["--metric", "matrix"]),
        ("subsample", ["--seed", "1"]),
        ("verify", ["--clamp", "1"]),
    ],
)
def test_options_a_command_does_not_read_exit_2(
    command, extra, labeled_file, manifest_file, capsys
):
    args = base_args(command, labeled_file, manifest_file)
    assert main(args) == 0
    code, _, err = run(args + extra, capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "command,keys",
    [
        ("pairwise", ["a", "metric", "r_max", "k_max", "subsample_a", "subsample_b", "clamp", "degrees"]),
        (
            "profile",
            [
                "a", "metric", "r_max", "k_max", "subsample_a", "subsample_b", "clamp",
                "profile_aggregate", "degrees",
            ],
        ),
        ("subsample", ["a", "metric", "subsample_a"]),
    ],
)
def test_params_echo_the_options_read(command, keys, labeled_file, manifest_file, capsys):
    args = base_args(command, labeled_file, manifest_file) + ["--format", "json"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert list(json.loads(out)["params"]) == keys


def test_rmax_rule_is_shared(square_center_files, labeled_file, manifest_file, capsys):
    a, b = square_center_files
    errors = []
    for args in (
        ["mixup", "--a", a, "--b", b, "--rmax", "0"],
        ["pairwise", "--a", labeled_file, "--rmax", "0"],
    ):
        code, _, err = run(args, capsys)
        assert code == 2
        errors.append(err)
    assert errors[0] == errors[1]
    assert "r_max" in errors[0]
    # --kmax below 0 gets the same rule and message on every command
    for args in (
        ["mixup", "--a", a, "--b", b, "--rmax", "2"],
        ["pairwise", "--a", labeled_file, "--rmax", "12"],
        ["profile", "--a", manifest_file, "--rmax", "12"],
        ["verify", "--a", a, "--b", b, "--rmax", "2"],
    ):
        code, out, err = run(args + ["--kmax", "-1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: k_max must be non-negative, got -1\n"


@pytest.mark.parametrize("command", ["mixup", "verify", "pairwise", "profile"])
def test_kmax_above_the_cell_budget_exits_2_before_any_read(command, capsys):
    """A k-simplex brings k + 1 points and 2^(k+1) - 1 cells, more than the
    budget holds once k >= 23, so --kmax 23 resolves nothing a build may
    hold; it is refused before the input, here a missing file, is read, and
    before the default degrees 0..--kmax are listed."""
    from mixbar import cloud, rips

    assert rips.MAX_K == 22
    assert cloud.within_budget(23**2, 2**23 - 1) and not cloud.within_budget(24**2, 2**24 - 1)
    code, out, err = run([command, "--a", "missing.csv", "--rmax", "1", "--kmax", "23"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: k_max must be at most 22 (mixbar.rips.MAX_K), got 23\n"


def test_kmax_at_the_cell_budget_accepted(square_center_files, capsys):
    a, b = square_center_files
    code, out, err = run(["mixup", "--a", a, "--b", b, "--rmax", "2.0", "--kmax", "22"], capsys)
    assert (code, err) == (0, "")
    degrees = json.loads(out)["degrees"]
    assert list(degrees) == [str(k) for k in range(23)]
    # the five points span a 4-simplex at most
    assert all(not degrees[str(k)]["triples"] for k in range(5, 23))


@pytest.mark.parametrize("command", ["mixup", "verify", "pairwise", "profile"])
def test_degrees_above_kmax_rejected_alike(
    command, square_center_files, labeled_file, manifest_file, capsys
):
    a, b = square_center_files
    args = {
        "mixup": ["mixup", "--a", a, "--b", b, "--rmax", "2.0"],
        "verify": ["verify", "--a", a, "--b", b, "--rmax", "2.0"],
        "pairwise": ["pairwise", "--a", labeled_file, "--rmax", "12"],
        "profile": ["profile", "--a", manifest_file, "--rmax", "12"],
    }[command] + ["--kmax", "1", "--degrees", "2"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: degrees [2] exceed --kmax 1; raise --kmax\n"


@pytest.mark.parametrize("command", ["mixup", "verify"])
def test_split_needs_metric_matrix(command, square_center_files, capsys):
    a, _ = square_center_files
    code, _, err = run([command, "--a", a, "--rmax", "2", "--split", "2", "--degrees", "0"], capsys)
    assert code == 2
    assert "--metric matrix" in err


def test_pairwise_degree0_does_not_depend_on_kmax(labeled_file, capsys):
    outs = []
    for k_max in ("0", "1", "2"):
        code, out, _ = run(
            ["pairwise", "--a", labeled_file, "--rmax", "12", "--kmax", k_max, "--format", "csv"],
            capsys,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize(
    "extra,flag",
    [
        (["--rmax", "0.01"], "--rmax"),
        (["--kmax", "7"], "--kmax"),
        (["--kmax", "2"], "--kmax"),
        (["--metric", "sqeuclidean"], "--metric"),
        (["--split", "1"], "--split"),
        (["--b", "b.csv"], "--b"),
    ],
)
def test_verify_fuzzer_rejects_input_options(extra, flag, capsys):
    code, out, err = run(["verify", "--instances", "2"] + extra, capsys)
    assert code == 2
    assert out == ""
    assert f"reads no {flag}" in err


@pytest.mark.parametrize("command", ["mixup", "verify"])
@pytest.mark.parametrize(
    "extra,flags",
    [
        (["--rmax", "9"], ["--rmax"]),
        (["--kmax", "0"], ["--kmax"]),
        (["--kmax", "2"], ["--kmax"]),
        (["--metric", "sqeuclidean"], ["--metric"]),
        (["--metric", "matrix", "--split", "2"], ["--metric", "--split"]),
        (["--rmax", "9", "--kmax", "0", "--metric", "sqeuclidean"], ["--rmax", "--kmax", "--metric"]),
    ],
)
def test_filtration_rejects_point_cloud_options(command, extra, flags, six_cell_file, capsys):
    code, out, err = run([command, "--filtration", six_cell_file] + extra, capsys)
    assert code == 2
    assert out == ""
    assert err.endswith(f"reads no {', '.join(flags)}\n")


def test_filtration_params_echo_the_defaults(six_cell_file, capsys):
    code, out, _ = run(["mixup", "--filtration", six_cell_file], capsys)
    assert code == 0
    params = json.loads(out)["params"]
    assert (params["metric"], params["k_max"], params["r_max"]) == ("euclidean", 2, None)


def test_verify_input_reads_kmax_and_metric(square_center_files, capsys):
    a, b = square_center_files
    args = ["verify", "--a", a, "--b", b, "--rmax", "2", "--degrees", "0,1"]
    for extra in ([], ["--kmax", "1", "--metric", "sqeuclidean"]):
        code, out, _ = run(args + extra, capsys)
        assert code == 0
        assert out == "checked 1 instance(s): all match\n"


def test_metric_matrix_takes_no_b(tmp_path, capsys):
    joint = tmp_path / "joint.txt"
    joint.write_text("0\n1 0\n")
    code, _, err = run(
        ["mixup", "--a", str(joint), "--metric", "matrix", "--b", str(joint), "--rmax", "2"], capsys
    )
    assert code == 2
    assert "--split" in err


# Every route that reads a --metric matrix file: mixup and verify through
# rips_pair_from_distances, subsample through k_medoids, or, when it keeps
# every point, through its own check.
MATRIX_ROUTES = {
    "mixup": ["mixup", "--metric", "matrix", "--rmax", "2"],
    "verify": ["verify", "--metric", "matrix", "--rmax", "2"],
    "subsample-kmedoids": ["subsample", "--metric", "matrix", "--subsample-a", "1"],
    "subsample-keep-all": ["subsample", "--metric", "matrix", "--subsample-a", "3"],
}


def matrix_routes_exit_2(tmp_path, capsys, text, message):
    """Each matrix route, given text as its file, exits 2 with message."""
    path = tmp_path / "m.txt"
    path.write_text(text)
    for name, args in MATRIX_ROUTES.items():
        code, out, err = run(args + ["--a", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), name


def test_matrix_file_rejects_asymmetry(tmp_path, capsys):
    matrix_routes_exit_2(tmp_path, capsys, "0 1\n2 0\n", "distance matrix is not symmetric")


def test_matrix_file_rejects_negative(tmp_path, capsys):
    matrix_routes_exit_2(tmp_path, capsys, "0 -1\n-1 0\n", "distance matrix has negative entries")


def test_matrix_file_rejects_non_finite(tmp_path, capsys):
    matrix_routes_exit_2(tmp_path, capsys, "0 inf\ninf 0\n", "distance matrix has non-finite entries")


def test_matrix_file_rejects_nan(tmp_path, capsys):
    matrix_routes_exit_2(tmp_path, capsys, "0 nan\nnan 0\n", "distance matrix has non-finite entries")


def test_matrix_file_nan_diagonal_reads_as_strict_triangle(tmp_path, capsys):
    """A NaN is not zero, so the rows are read as the strict triangle of a
    3-point space, which the matrix check then rejects."""
    from mixbar.cloud import parse_distance_matrix

    assert parse_distance_matrix("nan\n1 nan\n").shape == (3, 3)
    matrix_routes_exit_2(tmp_path, capsys, "nan\n1 nan\n", "distance matrix has non-finite entries")


def test_matrix_file_is_checked_once(tmp_path, monkeypatch, capsys):
    from mixbar import cli, cloud, rips, subsample

    checked = []
    check = cloud.check_distance_matrix
    # cli does not import the check; were it to call one, it would be this one
    for module in (cli, cloud, rips, subsample):
        monkeypatch.setattr(
            module, "check_distance_matrix", lambda d: checked.append(d.shape) or check(d), raising=False
        )
    path = tmp_path / "m.txt"
    path.write_text("0\n1 0\n2 1.5 0\n")
    for name, args in MATRIX_ROUTES.items():
        checked.clear()
        code, _, err = run(args + ["--a", str(path)], capsys)
        assert (code, err, checked) == (0, "", [(3, 3)]), name


def test_subsample_checks_no_matrix_it_computes(tmp_path, monkeypatch, capsys):
    """A matrix computed from coordinates goes to PAM unchecked: only a
    --metric matrix file is checked."""
    from mixbar import cli, cloud, rips, subsample

    def no_check(d):
        raise AssertionError("checked a computed matrix")

    for module in (cli, cloud, rips, subsample):
        monkeypatch.setattr(module, "check_distance_matrix", no_check, raising=False)
    path = tmp_path / "p.csv"
    path.write_text("0\n1\n5\n6\n")
    code, out, err = run(["subsample", "--a", str(path), "--subsample-a", "2"], capsys)
    assert (code, out, err) == (0, "1\n2\n", "")


def test_clamped_is_computed_once_per_barcode(square_center_pair, monkeypatch):
    from mixbar import cli, stats

    calls = []
    minimum = np.minimum
    monkeypatch.setattr(np, "minimum", lambda *a: calls.append(a) or minimum(*a))
    bc = stats.compute_mixup_barcode(square_center_pair, 1, clamp=2.0)
    entry = cli._degree_entry(bc)
    assert entry["statistics"]["bars"] == len(bc.values) > 0
    assert len(calls) == 1
    assert entry["statistics"]["total_persistence"] == stats.total_persistence(bc)
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["pairwise", "profile"])
def test_kmedoids_budget_exits_2_before_any_distance(
    command, labeled_file, manifest_file, monkeypatch, capsys
):
    """Three points per class against a budget that the matrix of two fits:
    k-medoids on a class (pairwise) or on a class complement (profile) stops
    with an input error that names the option, before any distance is
    computed."""
    from mixbar import cloud, stats

    def no_distances(*args, **kwargs):
        raise AssertionError("computed distances")

    monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", 9 * 3 * 3 - 1)
    monkeypatch.setattr(stats, "distance_blocks", no_distances)
    path = labeled_file if command == "pairwise" else manifest_file
    code, out, err = run(
        [command, "--a", path, "--rmax", "12", "--degrees", "1",
         "--subsample-a", "4", "--subsample-b", "1"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == (
        "error: k-medoids for --subsample-b would choose among 3 points, whose distance "
        "matrix is over the budget of 80 bytes (mixbar.cloud.MAX_MATRIX_BYTES); use fewer "
        "points, or set --subsample-b to at least 3 to keep them all\n"
    )


@pytest.mark.parametrize(
    "command, sizes, call",
    [
        ("subsample", ["--subsample-a", "1"], (3, {"--subsample-a": 1})),
        ("pairwise", ["--subsample-a", "1", "--subsample-b", "1"],
         (3, {"--subsample-a": 1, "--subsample-b": 1})),
        ("profile", ["--subsample-a", "1", "--subsample-b", "4"], (3, {"--subsample-a": 1})),
    ],
)
def test_every_kmedoids_route_asks_the_one_sizing_rule(
    command, sizes, call, tmp_path, labeled_file, manifest_file, monkeypatch, capsys
):
    """subsample, pairwise and profile each ask subsample.check_budget with
    the n points and the map of their size options, and print its error."""
    from mixbar import cli, cloud, stats, subsample

    calls = []

    def spy(n, sizes):
        calls.append((n, dict(sizes)))
        return subsample.check_budget(n, sizes)

    monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", 9 * 3 * 3 - 1)
    monkeypatch.setattr(cli, "check_budget", spy)
    monkeypatch.setattr(stats, "check_budget", spy)
    points = tmp_path / "pts.csv"
    points.write_text("0\n10\n20\n")
    path = {"subsample": str(points), "pairwise": labeled_file, "profile": manifest_file}[command]
    rips = [] if command == "subsample" else ["--rmax", "12", "--degrees", "1"]
    code, out, err = run([command, "--a", path, *rips, *sizes], capsys)
    assert code == 2 and out == ""
    assert calls == [call]
    options = " and ".join(call[1])
    assert err == (
        f"error: k-medoids for {options} would choose among 3 points, whose distance "
        "matrix is over the budget of 80 bytes (mixbar.cloud.MAX_MATRIX_BYTES); use fewer "
        f"points, or set {options} to at least 3 to keep them all\n"
    )


@pytest.mark.parametrize("command", ["mixup", "pairwise"])
def test_distance_matrix_over_the_byte_budget_exits_2(command, tmp_path, monkeypatch, capsys):
    """A budget that 5 points exceed and 4 do not: mixup on 3 + 2 points and
    degree-0 pairwise on a cloud of 5 stop with an input error before their
    matrix is allocated; 4 points pass that check and stop at the charge for
    the cells of their Rips build, which comes on top of the matrix."""
    from mixbar import cloud

    monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", 9 * 5 * 5 - 1)
    coords = ["0,0", "0.3,0", "0,0.3", "9,0", "9.3,0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("\n".join(coords[:3]) + "\n")
    labeled = tmp_path / "lab.csv"
    if command == "mixup":
        args = ["mixup", "--a", str(a), "--b", str(b), "--rmax", "12", "--degrees", "0"]
    else:
        args = ["pairwise", "--a", str(labeled), "--rmax", "12", "--degrees", "0"]
    for n in (4, 5):
        b.write_text("\n".join(coords[3:n]) + "\n")
        labeled.write_text("".join(f"{p},{i // 3}\n" for i, p in enumerate(coords[:n])))
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert n == 5 or err == (
            "error: the Rips build of 4 points and 10 cells counted so far is over the budget "
            "of 224 bytes (mixbar.cloud.MAX_MATRIX_BYTES); lower --rmax or --kmax\n"
        )
    assert err == (
        "error: the distance matrix of 5 points would take 225 bytes with its Rips mask, "
        "more than the budget of 224 (mixbar.cloud.MAX_MATRIX_BYTES)\n"
    )


def test_kmedoids_budget_allows_clouds_at_the_limit(tmp_path, monkeypatch, capsys):
    """Classes of 30 points run k-medoids at a budget of exactly the
    9 bytes per entry of their 30 × 30 matrix and of SWAP's 2 × 28 table,
    and stop one byte below it. The Rips builds on 2 + 1 medoids, at most 7
    cells charged with their 3 x 3 matrix, fit within it."""
    from mixbar import cloud

    rng = np.random.default_rng(0)
    pts = np.repeat([[0.0, 0.0], [9.0, 0.0]], 30, axis=0) + rng.normal(size=(60, 2))
    path = tmp_path / "lab.csv"
    path.write_text("".join(f"{x},{y},{i // 30}\n" for i, (x, y) in enumerate(pts)))
    args = ["pairwise", "--a", str(path), "--rmax", "12", "--degrees", "1",
            "--subsample-a", "2", "--subsample-b", "1"]
    for budget, want in ((9 * (30 * 30 + 2 * 28), 0), (9 * (30 * 30 + 2 * 28) - 1, 2)):
        monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", budget)
        code, _, _ = run(args, capsys)
        assert code == want


def test_profile_forms_no_matrix_over_the_kmedoids_budget(tmp_path, monkeypatch, capsys):
    """Two classes of 40 points: the k-medoids blocks of the classes and
    their complements add up to the whole 80-point matrix, which
    distance_blocks forms only when it fits the budget together with a
    40-point block and SWAP's 2 x 38 table on it; the output is the same
    either way. Every budget below also holds the Rips builds on 2 + 2
    medoids, at most 14 cells charged with their 4 x 4 matrix."""
    from mixbar import cloud

    rng = np.random.default_rng(0)
    pts = np.repeat([[0.0, 0.0], [3.0, 0.0]], 40, axis=0) + rng.normal(size=(80, 2))
    path = tmp_path / "lab.csv"
    path.write_text("".join(f"{x},{y},{i // 40}\n" for i, (x, y) in enumerate(pts)))
    manifest = tmp_path / "series.txt"
    manifest.write_text(f"0 0 {path}\n")
    args = ["profile", "--a", str(manifest), "--rmax", "4", "--degrees", "1",
            "--subsample-a", "2", "--subsample-b", "2"]
    code, want, _ = run(args, capsys)
    assert code == 0
    real = cloud.pairwise_distances
    for budget, largest in (
        (9 * (40 * 40 + 2 * 38), 40),  # a 40-point block and its SWAP table fit, the whole matrix does not
        (9 * 80 * 80, 40),  # the whole matrix fits alone, not with a block
        (9 * (80 * 80 + 40 * 40 + 2 * 38) - 1, 40),
        (9 * (80 * 80 + 40 * 40 + 2 * 38), 80),  # the whole matrix, one block and its table fit
    ):
        sizes = []
        monkeypatch.setattr(
            cloud, "pairwise_distances", lambda p, m: sizes.append(len(p)) or real(p, m)
        )
        monkeypatch.setattr(cloud, "MAX_MATRIX_BYTES", budget)
        code, out, _ = run(args, capsys)
        assert code == 0 and out == want
        assert sizes and max(sizes) == largest, budget


def test_labels_beyond_2_53_stay_distinct_and_exact(tmp_path, capsys):
    """Labels are read as integers, not through float64, which rounds
    9007199254740993 to 9007199254740992 and merged the two classes."""
    labels = ("9007199254740992", "9007199254740993", "1234567890123456789")
    rows = [
        f"{x + 9 * c},0,{label}" for c, label in enumerate(labels) for x in (0, 0.3, 0.6)
    ]
    path = tmp_path / "lab.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(
        ["pairwise", "--a", str(path), "--rmax", "20", "--kmax", "0", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label," + ",".join(sorted(labels, key=int))
    assert [line.split(",")[0] for line in lines[1:]] == sorted(labels, key=int)


@pytest.mark.parametrize(
    "label", ["0.5", "9007199254740992.0", "1e17", "nan", "-inf", "9223372036854775808"]
)
def test_labels_that_are_not_exact_integers_exit_2(label, tmp_path, capsys):
    path = tmp_path / "lab.csv"
    path.write_text(f"0,0,0\n0.3,0,0\n9,0,{label}\n9.3,0,{label}\n")
    code, out, err = run(
        ["pairwise", "--a", str(path), "--rmax", "12", "--kmax", "0", "--format", "csv"], capsys
    )
    assert code == 2 and out == ""
    assert f"got {label!r}" in err


# The boundary of a tetrahedron filled by one 3-cell of K.
TETRAHEDRON = """\
1 0 0.0 L
2 0 0.0 L
3 0 0.0 L
4 0 0.0 L
5 1 1.0 L 1 2
6 1 1.0 L 1 3
7 1 1.0 L 1 4
8 1 1.0 L 2 3
9 1 1.0 L 2 4
10 1 1.0 L 3 4
11 2 2.0 L 5 6 8
12 2 2.0 L 5 7 9
13 2 2.0 L 6 7 10
14 2 2.0 L 8 9 10
15 3 3.0 K 11 12 13 14
"""


@pytest.mark.parametrize(
    "args,want",
    [
        (["--a", "a.csv", "--b", "b.csv", "--rmax", "2", "--kmax", "1"], [0, 1]),
        (["--a", "a.csv", "--rmax", "2"], [0, 1, 2]),
        (["--filtration", "tetrahedron.txt"], [0, 1, 2, 3]),
        (["--filtration", "tetrahedron.txt", "--degrees", "3,1"], [1, 3]),
    ],
)
def test_verify_checks_the_degrees_mixup_reads(args, want, tmp_path, monkeypatch, capsys):
    """With an input, verify defaults its degrees as mixup does: 0..--kmax
    of a Rips build, 0..max_dim of an explicit pair."""
    from mixbar import verify

    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text("0,0\n1,0\n0,1\n1,1\n")
    (tmp_path / "b.csv").write_text("0.5,0.5\n")
    (tmp_path / "tetrahedron.txt").write_text(TETRAHEDRON)
    seen = []
    monkeypatch.setattr(verify, "check_instance", lambda fp, degrees: seen.append(degrees) or [])
    code, out, _ = run(["verify"] + args, capsys)
    assert (code, out, seen) == (0, "checked 1 instance(s): all match\n", [want])
    code, out, _ = run(["mixup"] + args, capsys)
    assert code == 0 and list(json.loads(out)["degrees"]) == [str(k) for k in want]


def test_verify_explicit_pair_with_3_cells_matches_oracle(tmp_path, capsys):
    path = tmp_path / "tetrahedron.txt"
    path.write_text(TETRAHEDRON)
    code, out, _ = run(["verify", "--filtration", str(path)], capsys)
    assert (code, out) == (0, "checked 1 instance(s): all match\n")


def overflow_files(tmp_path):
    """18 labeled points in R^2 whose class 0 lies near x = 1e160: every
    coordinate is finite, but their squared distances overflow float64."""
    pts = np.random.default_rng(0).normal(size=(18, 2))
    pts[:6, 0] = 1e160 * (1 + np.arange(6))
    np.savetxt(tmp_path / "ov.csv", np.c_[pts, np.repeat([0, 1, 2], 6)], delimiter=",")
    (tmp_path / "series.txt").write_text("0 0 ov.csv\n")


@pytest.mark.parametrize(
    "args",
    [
        ["pairwise", "--a", "ov.csv"],
        ["profile", "--a", "series.txt"],
        ["mixup", "--a", "ov.csv"],
        ["subsample", "--a", "ov.csv", "--subsample-a", "3"],
    ],
)
def test_overflowing_squared_distances_exit_2(args, tmp_path, monkeypatch, capsys):
    """Every command that computes distances refuses them once they
    overflow, before k-medoids or a matrix check sees an inf. A
    RuntimeWarning would fail this test (pyproject.toml)."""
    monkeypatch.chdir(tmp_path)
    overflow_files(tmp_path)
    if args[0] in ("pairwise", "profile"):
        args = args + ["--rmax", "1", "--kmax", "1", "--degrees", "1", "--subsample-a", "3", "--subsample-b", "3"]
    elif args[0] == "mixup":
        args = args + ["--rmax", "1"]
    code, out, err = run(args, capsys)
    assert (code, out) == (2, "")
    assert err == "error: squared distances between the points overflow to inf; rescale the coordinates\n"


PLOT_NO_DEGREES = '{"command": "mixup", "degrees": {}}'


@pytest.mark.parametrize(
    "args,files,message",
    [
        (["mixup", "--filtration", "six.txt", "--degrees", "1,x"], {},
         "cannot parse degrees '1,x'; expected comma-separated integers"),
        (["mixup", "--filtration", "six.txt", "--degrees", ","], {}, "empty degree list"),
        (["mixup", "--filtration", "six.txt", "--degrees=-1"], {}, "degrees must be non-negative"),
        (["mixup", "--filtration", "six.txt", "--a", "a.csv"], {},
         "give either --filtration or point clouds, not both"),
        (["mixup", "--a", "a.csv"], {}, "--rmax is required for point-cloud input"),
        (["mixup", "--a", "empty.txt", "--metric", "matrix", "--rmax", "1"], {"empty.txt": "# no rows\n"},
         "empty distance matrix"),
        (["mixup", "--a", "m.txt", "--metric", "matrix", "--rmax", "1"], {"m.txt": "0\nx 0\n"},
         "non-numeric entry in distance matrix: could not convert string to float: 'x'"),
        (["profile", "--a", "s.txt", "--rmax", "1"], {"s.txt": "0 lab.csv\n"},
         "manifest line 1: expected `layer step path`"),
        (["profile", "--a", "s.txt", "--rmax", "1"], {"s.txt": "0 0 lab.csv\n# again\n0 0 lab.csv\n"},
         "manifest line 3: duplicate entry for (0, 0)"),
        (["profile", "--a", "s.txt", "--rmax", "1"], {"s.txt": "# layer step path\n"}, "empty profile manifest"),
        (["pairwise", "--a", "one.csv", "--rmax", "1"], {"one.csv": "0\n1\n"},
         "labeled point table needs at least one coordinate column plus the label"),
        (["verify", "--instances", "0"], {}, "--instances must be positive, got 0"),
        (["plot", "--results", "r.json"], {"r.json": "not json\n"},
         "r.json is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (["plot", "--results", "r.json"], {"r.json": PLOT_NO_DEGREES}, "results hold no degrees"),
        (["mixup", "--filtration", "p.txt"], {"p.txt": "1 0 0.0\n"},
         "line 1: expected `id dim value member [boundary...]`"),
        (["mixup", "--filtration", "p.txt"], {"p.txt": "1 0 0.0 L\none 0 0.0 L\n"},
         "line 2: id and dim must be integers, value a number"),
        (["mixup", "--filtration", "p.txt"], {"p.txt": "1 0 0.0 L\n2 1 1.0 L 1 x\n"},
         "line 2: boundary ids must be integers"),
    ],
    ids=[
        "degrees-not-int", "degrees-empty", "degrees-negative", "filtration-and-a", "no-rmax",
        "empty-matrix", "matrix-not-numeric", "manifest-two-fields", "manifest-duplicate",
        "manifest-empty", "labeled-one-column", "instances-0", "plot-not-json", "plot-no-degrees",
        "explicit-few-fields", "explicit-id-not-int", "explicit-boundary-not-int",
    ],
)
def test_input_errors_exit_2_with_their_message(args, files, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "six.txt").write_text(SIX_CELL)
    (tmp_path / "a.csv").write_text("0,0\n1,0\n")
    (tmp_path / "lab.csv").write_text("0,0\n1,1\n")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(args, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["pairwise", "profile"])
@pytest.mark.parametrize("degrees, passes", [("1,2", 1), ("0,1,2", 2)])
def test_each_subsampling_and_build_runs_once_for_all_degrees(
    command, degrees, passes, tmp_path, monkeypatch, capsys
):
    """c = 3 classes of 8 points. k-medoids runs once per subsampled set,
    whatever the degrees >= 1: 2c runs, on each class at both sizes in
    pairwise and on each class and its complement in profile. Each entry is
    built once per pass, degree 0 being a pass of its own: c(c - 1) builds
    per pass in pairwise, and c per cloud of the 1 x 3 grid in profile."""
    from mixbar import stats

    rng = np.random.default_rng(5)
    labels = np.repeat([0, 1, 2], 8)
    for step in (0, 1, 2):
        pts = rng.normal(size=(24, 3)) + step * np.eye(3)[labels]
        rows = [f"{x},{y},{z},{lab}\n" for (x, y, z), lab in zip(pts, labels)]
        (tmp_path / f"c{step}.csv").write_text("".join(rows))
    (tmp_path / "series.txt").write_text("0 0 c0.csv\n0 1 c1.csv\n0 2 c2.csv\n")
    calls = {"k_medoids_indices": 0, "rips_pair_from_distances": 0}
    for name in calls:
        def counted(*args, _real=getattr(stats, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(stats, name, counted)
    a, builds = {"pairwise": ("c0.csv", 3 * 2), "profile": ("series.txt", 3 * 3)}[command]
    code, _, _ = run(
        [command, "--a", str(tmp_path / a), "--rmax", "2.5", "--kmax", "2", "--degrees", degrees,
         "--subsample-a", "4", "--subsample-b", "3"],
        capsys,
    )
    assert code == 0
    assert calls == {"k_medoids_indices": 2 * 3, "rips_pair_from_distances": passes * builds}
