import json

import pytest

from hdindex.cli import main
from hdindex.harness import BUNDLED_DIAGRAMS
from importlib import resources


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name in BUNDLED_DIAGRAMS:
        text = resources.files("hdindex.data").joinpath(name).read_text()
        (root / name).write_text(text)
    return root


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, data_dir):
    code, out, _ = run(capsys, "validate", str(data_dir / "torus_g1_3x.hd"))
    assert code == 0
    assert "valid" in out


def test_validate_invalid(capsys, tmp_path):
    bad = tmp_path / "sphere.hd"
    bad.write_text("alpha a: x y\nbeta b: x y\nsign x: +\nsign y: -\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "genus-mismatch" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "broken.hd"
    bad.write_text("alpha a: x\nbeta b: x\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 1
    assert "missing sign" in err


def test_info(capsys, data_dir):
    code, out, _ = run(capsys, "--json", "info", str(data_dir / "genus2_s1s2.hd"))
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert payload["periodic_rank"] == 2


def test_generators(capsys, data_dir):
    code, out, _ = run(capsys, "generators", str(data_dir / "torus_g1_3x.hd"))
    assert code == 0
    assert out.split() == ["v0", "v1", "v2"]


def test_domains(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "domains",
        str(data_dir / "torus_g1_3x.hd"),
        "--from", "v0", "--to", "v2", "--max-coeff", "1", "--positive",
    )
    assert code == 0
    assert "r1:1" in out.split()


def test_index_bigon(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "--json",
        "index",
        str(data_dir / "torus_g1_3x.hd"),
        "--from", "v0", "--to", "v2", "--domain", "r1:1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "g": "1",
        "e": "1/2",
        "n_x": "1/4",
        "n_y": "1/4",
        "mu": "1",
        "chi_emb": "1",
    }


def test_index_sigma_mu_two(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "--json",
        "index",
        str(data_dir / "torus_g1_2x.hd"),
        "--from", "x", "--to", "x", "--domain", "r0:1,r1:1",
    )
    assert code == 0
    assert json.loads(out)["mu"] == "2"


def test_index_nonconnecting_precondition(capsys, data_dir):
    code, _, err = run(
        capsys,
        "index",
        str(data_dir / "torus_g1_3x.hd"),
        "--from", "v0", "--to", "v1", "--domain", "r1:1",
    )
    assert code == 1
    assert "does not connect" in err
    assert "--force on the command line" in err
    code, _, _ = run(
        capsys,
        "index",
        str(data_dir / "torus_g1_3x.hd"),
        "--from", "v0", "--to", "v1", "--domain", "r1:1", "--force",
    )
    assert code == 0


# two alpha curves and one beta curve: it parses, but it is not valid
TWO_ALPHAS_ONE_BETA = "alpha a1: x\nalpha a2: y\nbeta b1: x y\nsign x: +\nsign y: +\n"


def test_an_invalid_diagram_is_refused_by_the_verbs_that_need_a_valid_one(capsys, tmp_path):
    path = tmp_path / "bad.hd"
    path.write_text(TWO_ALPHAS_ONE_BETA)
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid diagram: curve count mismatch: 2 alpha vs 1 beta; ")


def test_check_reports_an_invalid_diagram_and_runs_no_suite_on_it(capsys, tmp_path, data_dir):
    (tmp_path / "bad.hd").write_text(TWO_ALPHAS_ONE_BETA)
    (tmp_path / "good.hd").write_text((data_dir / "torus_g1_3x.hd").read_text())
    code, out, _ = run(
        capsys, "--json", "check", str(tmp_path),
        "--pattern-bound", "1", "--max-coeff", "1", "--k-max", "1",
    )
    assert code == 3
    suites = {r["suite"]: r for r in json.loads(out)["suites"]}
    assert [name for name in suites if name.endswith("[bad.hd]")] == ["validity[bad.hd]"]
    assert suites["validity[bad.hd]"]["failures"] == [
        {"violations": ["curve-count", "genus-mismatch", "alpha-complement"]}
    ]
    assert len([name for name in suites if name.endswith("[good.hd]")]) == 5
    assert all(r["ok"] for name, r in suites.items() if name != "validity[bad.hd]")


def test_build_surface(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "--json",
        "build-surface",
        str(data_dir / "genus2_bigons.hd"),
        "--from", "x1,x2", "--to", "y1,y2",
        "--domain", "r2:1,r3:1,r4:1,r6:1,r7:2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 0
    assert payload["delta"] == "0"


def test_stabilize(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "--json",
        "stabilize",
        str(data_dir / "genus2_bigons.hd"),
        "--from", "x1,x2", "--to", "x1,x2", "--domain", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cover_check"]["ok"] is True


def test_stabilize_rejects_genus_one(capsys, data_dir):
    code, _, err = run(
        capsys,
        "stabilize",
        str(data_dir / "torus_g1_1x.hd"),
        "--from", "x", "--to", "x", "--domain", "0",
    )
    assert code == 2
    assert "g>1" in err


def test_json_outputs_are_reproducible(capsys, data_dir):
    args = (
        "--json",
        "build-surface",
        str(data_dir / "genus2_bigons.hd"),
        "--from", "x1,x2", "--to", "y1,y2",
        "--domain", "r2:1,r3:1,r4:1,r6:1,r7:2",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_check_small_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("torus_g1_1x.hd", "torus_g1_3x.hd"):
        text = resources.files("hdindex.data").joinpath(name).read_text()
        (corpus / name).write_text(text)
    code, out, _ = run(
        capsys, "check", str(corpus), "--pattern-bound", "1", "--max-coeff", "2"
    )
    assert code == 0
    assert "ok" in out


@pytest.mark.parametrize("target", ["missing", "empty"])
def test_check_rejects_a_corpus_without_diagrams(capsys, tmp_path, target):
    corpus = tmp_path / target
    if target == "empty":
        corpus.mkdir()
        (corpus / "notes.txt").write_text("not a diagram\n")
    code, out, err = run(capsys, "check", str(corpus))
    assert code == 1
    assert out == ""
    assert f"no .hd diagrams in {corpus}" in err


@pytest.mark.parametrize(
    "case, reason",
    [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", "is not UTF-8 text"),
    ],
)
def test_unreadable_diagram_paths_end_in_a_diagram_error(capsys, tmp_path, case, reason):
    path = tmp_path / "diagram.hd"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(path) in err and reason in err


@pytest.mark.parametrize(
    "verb, flag, value, minimum",
    [
        ("domains", "--max-coeff", "-1", 0),
        ("check", "--max-coeff", "-1", 0),
        ("check", "--pattern-bound", "0", 1),
        ("check", "--k-max", "-1", 0),
    ],
)
def test_bound_flags_reject_values_below_their_minimum(
    capsys, data_dir, verb, flag, value, minimum
):
    args = [verb, flag, value]
    if verb == "domains":
        args += [str(data_dir / "torus_g1_3x.hd"), "--from", "v0", "--to", "v2"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hdindex")
    assert f"argument {flag}: {value} is below the minimum {minimum}" in err


def test_bound_flags_keep_their_minimum_and_integer_check(capsys, data_dir):
    code, out, _ = run(
        capsys, "domains", str(data_dir / "torus_g1_3x.hd"),
        "--from", "v0", "--to", "v0", "--max-coeff", "0",
    )
    assert (code, out.split()) == (0, ["0"])
    with pytest.raises(SystemExit):
        main(["check", "--k-max", "two"])
    assert "argument --k-max: invalid int value: 'two'" in capsys.readouterr().err


def test_info_text_matches_json(capsys, data_dir):
    path = str(data_dir / "genus2_s1s2.hd")
    _, out, _ = run(capsys, "--json", "info", path)
    payload = json.loads(out)
    _, text, _ = run(capsys, "info", path)
    assert f"e(full surface class) = {payload['euler_measure_sigma']}" in text
    assert f"periodic domain rank = {payload['periodic_rank']}" in text
