import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hdindex import builder, cli
from hdindex.cli import MAX_DIAGRAM_BYTES, main
from hdindex.harness import BUNDLED_DIAGRAMS
from importlib import resources
from support import torus_text

SRC = Path(__file__).resolve().parent.parent / "src"


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
    code, out, _ = run(capsys, "--json", "check", str(tmp_path))
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


def test_stabilize_exits_3_when_the_cover_bookkeeping_fails(capsys, data_dir, monkeypatch):
    real = cli.branched_cover_check
    monkeypatch.setattr(cli, "branched_cover_check", lambda s4: dict(real(s4), ok=False))
    case = (
        "stabilize",
        str(data_dir / "genus2_bigons.hd"),
        "--from", "x1,x2", "--to", "x1,x2", "--domain", "0",
    )
    code, out, _ = run(capsys, *case)
    assert code == 3
    assert out.splitlines()[-1] == "cover bookkeeping: VIOLATED"
    code, out, _ = run(capsys, "--json", *case)
    assert code == 3
    assert json.loads(out)["cover_check"]["ok"] is False


def test_stabilize_rejects_genus_one(capsys, data_dir):
    code, _, err = run(
        capsys,
        "stabilize",
        str(data_dir / "torus_g1_1x.hd"),
        "--from", "x", "--to", "x", "--domain", "0",
    )
    assert code == 2
    assert "stabilization needs genus at least 2; this diagram has genus 1" in err


@pytest.mark.parametrize("verb", ["build-surface", "stabilize"])
def test_a_domain_past_the_face_limit_is_refused_before_building(
    capsys, data_dir, monkeypatch, verb
):
    def no_allocation(*args):
        raise AssertionError("sheets were allocated")

    monkeypatch.setattr(builder._Surface, "new_rings", no_allocation)
    # 6,554 times the surface class of genus3_chain: 65,540 sheets
    domain = ",".join(f"r{r}:6554" for r in range(10))
    code, out, err = run(
        capsys,
        verb,
        str(data_dir / "genus3_chain.hd"),
        "--from", "y1,y2,t", "--to", "y1,y2,t", "--domain", domain,
    )
    assert (code, out) == (2, "")
    assert err == "precondition: 65540 sheets exceed the 65536-face limit\n"


PAST_THE_COEFFICIENT_BUDGET = (
    "--from", "x1,x2", "--to", "y1,y2", "--domain", "r2:268435456",
)


@pytest.mark.parametrize("verb", ["index", "build-surface", "stabilize"])
def test_a_coefficient_past_the_budget_is_refused(capsys, data_dir, verb):
    # 2^28: the packed product of connects is not exact past MAX_COEFF
    path = str(data_dir / "genus2_bigons.hd")
    code, out, err = run(capsys, verb, path, *PAST_THE_COEFFICIENT_BUDGET)
    assert (code, out) == (2, "")
    assert err == "precondition: coefficient magnitude 268435456 exceeds the 268435455 limit\n"


def test_a_forced_index_evaluates_a_coefficient_past_the_budget(capsys, data_dir):
    # --force never asks connects, so it still answers on any domain
    path = str(data_dir / "genus2_bigons.hd")
    code, out, err = run(capsys, "--json", "index", path, *PAST_THE_COEFFICIENT_BUDGET, "--force")
    assert (code, err) == (0, "")
    assert json.loads(out)["n_y"] == "134217728"


def test_a_box_past_the_point_budget_is_refused(capsys, data_dir):
    # rank 2 and the signed box |c| <= 100000: 200001 ** 2 points
    code, out, err = run(
        capsys,
        "domains",
        str(data_dir / "genus2_s1s2.hd"),
        "--from", "a,c", "--to", "a,c", "--max-coeff", "100000",
    )
    assert (code, out) == (2, "")
    assert err == "precondition: 40000400001 box points exceed the 1048576-point limit\n"


def test_a_reader_that_closes_the_pipe_gets_no_traceback(data_dir):
    # 51,521 domains, far more than a pipe buffer holds
    with subprocess.Popen(
        [
            sys.executable, "-m", "hdindex.cli", "domains", str(data_dir / "genus2_s1s2.hd"),
            "--from", "a,c", "--to", "a,c", "--max-coeff", "160",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first == b"r0:-160,r1:-160,r2:-160\n"
    assert (proc.returncode, err) == (1, b"")


WALL_BOUND_S = 10  # the verbs below end in 0.1-0.2 s, and info on the big file in 2 s
LIMIT = "precondition: {} crossings exceed the 256-crossing limit\n"
PAIR = ("--from", "v0", "--to", "v0")


def run_process(*args):
    """Run the CLI in a fresh interpreter, killed past the wall bound."""
    return subprocess.run(
        [sys.executable, "-m", "hdindex.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=WALL_BOUND_S,
    )


# verb: (arguments after the diagram, or None to check its directory,
# exit code, stderr)
PAST_THE_BUDGET = {
    "validate": ((), 0, ""),
    "generators": ((), 0, ""),
    "info": ((), 2, LIMIT.format(257)),
    "index": ((*PAIR, "--domain", "0"), 2, LIMIT.format(257)),
    "domains": (PAIR, 2, LIMIT.format(257)),
    "build-surface": ((*PAIR, "--domain", "0"), 2, LIMIT.format(257)),
    "stabilize": ((*PAIR, "--domain", "0"), 2, "precondition: stabilization needs genus at least 2; this diagram has genus 1\n"),
    "check": (None, 2, LIMIT.format(257)),
}


@pytest.mark.parametrize("verb", PAST_THE_BUDGET)
def test_a_diagram_past_the_crossing_budget_ends_quickly(tmp_path, verb):
    # one crossing past the limit: the verbs that read the lattice refuse it
    # before they factor it; stabilize refuses genus one before that
    extra, code, err = PAST_THE_BUDGET[verb]
    path = tmp_path / "torus257.hd"
    path.write_text(torus_text(257))
    args = (verb, str(tmp_path)) if extra is None else (verb, str(path), *extra)
    proc = run_process(*args)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert bool(proc.stdout) == (code == 0)


def test_info_on_a_file_near_the_size_limit_ends_quickly(tmp_path):
    # the largest odd torus that the 1 MiB read admits, 37,305 crossings
    n = 37305
    text = torus_text(n)
    assert MAX_DIAGRAM_BYTES - 1024 < len(text) <= MAX_DIAGRAM_BYTES < len(torus_text(n + 2))
    path = tmp_path / "torus.hd"
    path.write_text(text)
    proc = run_process("info", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", LIMIT.format(n))


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
    code, out, _ = run(capsys, "check", str(corpus))
    assert code == 0
    assert "ok" in out


# check's case counts per bundled diagram: additivity, stabilization,
# builder consistency and stabilized surface, each at its fixed box
CHECK_CASES = {
    "torus_g1_1x.hd": (9, 12, 4, 0),
    "torus_g1_2x.hd": (18, 24, 8, 0),
    "torus_g1_3x.hd": (121, 76, 28, 0),
    "genus2_bigons.hd": (3205, 788, 332, 82),
    "genus2_s1s2.hd": (162, 72, 32, 8),
    "genus3_chain.hd": (6410, 1576, 664, 164),
}


def test_check_runs_each_suite_at_its_fixed_box(capsys):
    code, out, _ = run(capsys, "--json", "check")
    assert code == 0
    got = [(r["suite"], r["cases"]) for r in json.loads(out)["suites"]]
    want = [("local-pattern-oracle", 320)]
    suites = ("additivity", "stabilization", "builder-consistency", "stabilized-surface")
    for name, counts in CHECK_CASES.items():
        want.append((f"validity[{name}]", 1))
        want += [(f"{suite}[{name}]", n) for suite, n in zip(suites, counts)]
    assert got == want
    assert sum(n for _, n in got) == 14121


@pytest.mark.parametrize("flag", ["--pattern-bound", "--max-coeff", "--k-max"])
def test_check_takes_no_bound_flag(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", flag, "1"])
    assert exc.value.code == 2
    # the value is read as the corpus directory
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag}\n")


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


def test_a_diagram_file_over_the_size_limit_ends_in_a_diagram_error(capsys, data_dir, tmp_path):
    # a valid diagram padded by a comment to exactly the limit is read
    text = (data_dir / "torus_g1_3x.hd").read_bytes()
    at_limit = text + b"#" * (MAX_DIAGRAM_BYTES - len(text) - 1) + b"\n"
    path = tmp_path / "big.hd"
    path.write_bytes(at_limit)
    assert run(capsys, "validate", str(path)) == (0, "valid\n", "")
    # one byte more is refused, before any of it is parsed
    path.write_bytes(at_limit + b"\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert f"larger than the {MAX_DIAGRAM_BYTES}-byte limit" in err


@pytest.mark.parametrize(
    "verb, flag, value, minimum",
    [
        ("domains", "--max-coeff", "-1", 0),
    ],
)
def test_bound_flags_reject_values_below_their_minimum(
    capsys, data_dir, verb, flag, value, minimum
):
    args = [verb, flag, value, str(data_dir / "torus_g1_3x.hd"), "--from", "v0", "--to", "v2"]
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
        main(["domains", str(data_dir / "torus_g1_3x.hd"), "--from", "v0", "--to", "v0",
              "--max-coeff", "two"])
    assert "argument --max-coeff: invalid int value: 'two'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_0", "\u0661", "+3", "03"])
@pytest.mark.parametrize("flag", ["--max-coeff"])
def test_bound_flags_read_integers_as_domain_coefficients_are_read(
    capsys, data_dir, flag, value
):
    # Python's int reads 1_0 as 10, the Arabic-Indic one as 1, +3 and 03 as 3
    with pytest.raises(SystemExit) as exc:
        main(["domains", str(data_dir / "torus_g1_3x.hd"), "--from", "v0", "--to", "v0",
              flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


def test_info_text_matches_json(capsys, data_dir):
    path = str(data_dir / "genus2_s1s2.hd")
    _, out, _ = run(capsys, "--json", "info", path)
    payload = json.loads(out)
    _, text, _ = run(capsys, "info", path)
    assert f"e(full surface class) = {payload['euler_measure_sigma']}" in text
    assert f"periodic domain rank = {payload['periodic_rank']}" in text
