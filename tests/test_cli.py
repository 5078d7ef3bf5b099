import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epsstream
from epsstream.cli import REQUIRED_FLAGS, main
from streams import make_stream


def run_cli(args):
    buf = io.StringIO()
    code = main(args, out=buf)
    return code, buf.getvalue()


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "pts.txt"
    pts = make_stream("uniform", 48, seed=1)
    path.write_text("".join(f"{p.x},{p.y}\n" for p in pts))
    return path


def test_build_query_round_trip(tmp_path, stream_file):
    state = tmp_path / "state.json"
    snap = tmp_path / "snap.json"
    code, out = run_cli(["--scale", "1", "build", "--input", str(stream_file),
                         "--family", "quadrant", "--eps", "1/2",
                         "--state", str(state), "--snapshot", str(snap)])
    assert code == 0
    info = json.loads(out)
    assert info["n"] == 48
    queries = tmp_path / "q.txt"
    lo = -(1 << 22)
    queries.write_text(f"count quadrant:{lo},{lo}\niceberg 0.5 quadrant:{lo},{lo}\nnet\n")
    code, out = run_cli(["query", "--snapshot", str(snap), "--queries", str(queries)])
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["estimate"] == "48/1"
    assert json.loads(lines[1])["verdict"] == "above"
    assert len(json.loads(lines[2])["points"]) >= 1


@pytest.mark.parametrize("theta,code", [("abc", 2), ("1/0", 2), ("2", 3)])
def test_iceberg_theta_exit_codes(tmp_path, stream_file, capsys, theta, code):
    """An unparseable theta is a parse error, like a bad descriptor value;
    a parsed one outside (0, 1) is a config error."""
    snap = tmp_path / "snap.json"
    assert run_cli(["--scale", "1", "build", "--input", str(stream_file),
                    "--family", "halfplane", "--eps", "1/2", "--snapshot", str(snap)])[0] == 0
    queries = tmp_path / "q.txt"
    queries.write_text(f"iceberg {theta} halfplane:1,0,0\n")
    assert run_cli(["query", "--snapshot", str(snap), "--queries", str(queries)])[0] == code
    assert "Traceback" not in capsys.readouterr().err


def test_build_resume_equals_uninterrupted(tmp_path):
    pts = make_stream("sorted", 40, seed=2)
    full = tmp_path / "full.txt"
    full.write_text("".join(f"{p.x},{p.y}\n" for p in pts))
    head = tmp_path / "head.txt"
    head.write_text("".join(f"{p.x},{p.y}\n" for p in pts[:17]))
    tail = tmp_path / "tail.txt"
    tail.write_text("".join(f"{p.x},{p.y}\n" for p in pts[17:]))

    s_full = tmp_path / "s_full.json"
    snap_full = tmp_path / "snap_full.json"
    assert run_cli(["--scale", "1", "build", "--input", str(full), "--family", "halfplane",
                    "--eps", "1/2", "--state", str(s_full), "--snapshot", str(snap_full)])[0] == 0

    s_head = tmp_path / "s_head.json"
    assert run_cli(["--scale", "1", "build", "--input", str(head), "--family", "halfplane",
                    "--eps", "1/2", "--state", str(s_head)])[0] == 0
    s_resumed = tmp_path / "s_resumed.json"
    snap_resumed = tmp_path / "snap_resumed.json"
    assert run_cli(["--scale", "1", "build", "--input", str(tail), "--family", "halfplane",
                    "--eps", "1/2", "--resume", str(s_head), "--state", str(s_resumed),
                    "--snapshot", str(snap_resumed)])[0] == 0
    assert s_full.read_text() == s_resumed.read_text()
    assert snap_full.read_text() == snap_resumed.read_text()


def test_stats_and_oracle_commands(tmp_path, stream_file):
    snap = tmp_path / "snap.json"
    assert run_cli(["--scale", "1", "build", "--input", str(stream_file),
                    "--family", "halfplane", "--eps", "1/2", "--snapshot", str(snap)])[0] == 0
    code, out = run_cli(["stats", "tukey-depth", "--snapshot", str(snap), "--point", "0,0"])
    assert code == 0 and "value" in json.loads(out)
    code, out = run_cli(["stats", "tukey-median", "--snapshot", str(snap)])
    assert code == 0 and "point" in json.loads(out)
    code, out = run_cli(["--scale", "1", "oracle", "tukey-depth", "--input", str(stream_file),
                         "--point", "0,0"])
    assert code == 0 and "value" in json.loads(out)
    code, out = run_cli(["--scale", "1", "oracle", "discrepancy", "--input", str(stream_file),
                         "--snapshot", str(snap)])
    assert code == 0
    payload = json.loads(out)
    num, den = payload["value"].split("/")
    enum, eden = payload["eps"].split("/")
    assert int(num) * int(eden) <= int(enum) * int(den)


def test_bench_csv(tmp_path, stream_file):
    code, out = run_cli(["--scale", "1", "bench", "--input", str(stream_file),
                         "--family", "quadrant", "--eps", "1/4", "--sizes", "16,48"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,points_stored,levels,max_error,runtime_ms"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["16", "48"]
    for r in rows:
        n, stored = int(r[0]), int(r[1])
        assert stored <= n
        assert float(r[3]) <= 0.25 * n


def test_bench_unparseable_size_is_a_parse_error(stream_file, capsys):
    code, out = run_cli(["--scale", "1", "bench", "--input", str(stream_file),
                         "--family", "quadrant", "--eps", "1/4", "--sizes", "16,abc"])
    assert code == 2 and out == ""
    assert "Traceback" not in capsys.readouterr().err


def test_malformed_line_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2\n2,3\nwat\n")
    code, _ = run_cli(["build", "--input", str(bad), "--family", "halfplane", "--eps", "1/2"])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_empty_stream_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _ = run_cli(["build", "--input", str(empty), "--family", "halfplane", "--eps", "1/2"])
    assert code == 2
    assert "empty stream" in capsys.readouterr().err


def test_bad_eps_is_config_error(tmp_path, stream_file):
    code, _ = run_cli(["build", "--input", str(stream_file), "--family", "halfplane",
                       "--eps", "3/2"])
    assert code == 3


@pytest.fixture()
def three_points(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("0,0\n1,2\n3,1\n")
    return path


@pytest.mark.parametrize("command,flags,code", [
    (["build"], ["--family", "halfplane", "--eps", "1/0"], 2),
    (["build"], ["--family", "halfplane", "--eps", "abc"], 2),
    (["build"], ["--family", "halfplane", "--eps", "2"], 3),
    (["bench"], ["--family", "halfplane", "--eps", "1/0", "--sizes", "3"], 2),
    (["stats", "slope-rank"], ["--slope", "1/0"], 2),
    (["stats", "slope-rank"], ["--slope", "abc"], 2),
    (["stats", "regdepth"], ["--line", "1/0,2"], 2),
    (["stats", "regdepth"], ["--line", "1"], 2),
    (["stats", "simplicial"], ["--point", "0,0", "--delta", "abc"], 2),
    (["oracle", "slope-rank"], ["--slope", "1/0"], 2),
    (["oracle", "regdepth"], ["--line", "1,x"], 2),
    (["oracle", "lms-loc"], ["--fraction", "1/0"], 2),
    (["oracle", "lms-reg"], ["--fraction", "abc"], 2),
])
def test_numeric_flag_exit_codes(tmp_path, three_points, capsys, command, flags, code):
    """A numeric flag that does not parse as an exact number is a parse
    error (exit 2), as a descriptor value or iceberg theta is; a parsed eps
    outside (0, 1) is a config error (exit 3)."""
    snap = tmp_path / "snap.json"
    assert run_cli(["--scale", "1", "build", "--input", str(three_points),
                    "--family", "halfplane", "--eps", "1/2", "--snapshot", str(snap)])[0] == 0
    source = ["--snapshot", str(snap)] if command[0] == "stats" else ["--input", str(three_points)]
    assert run_cli(["--scale", "1", *command, *source, *flags]) == (code, "")
    assert "Traceback" not in capsys.readouterr().err


def test_console_entry_point():
    # the subprocess imports the same package as this test, installed or not
    src = str(Path(epsstream.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "epsstream.cli", "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "eps-stream" in proc.stdout


def test_env_scale_override(tmp_path, monkeypatch):
    path = tmp_path / "p.txt"
    path.write_text("1,1\n2,2\n3,0\n")
    snap = tmp_path / "s.json"
    monkeypatch.setenv("EPS_STREAM_SCALE", "2")
    code, _ = run_cli(["build", "--input", str(path), "--family", "quadrant",
                       "--eps", "1/2", "--snapshot", str(snap)])
    assert code == 0
    data = json.loads(snap.read_text())
    assert data["snapshot"]["scale"] == 2
    assert [2, 2] in [p[:2] for p in data["sample"]["points"]]


def test_env_scale_unparseable_is_a_parse_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "p.txt"
    path.write_text("1,1\n2,2\n3,0\n")
    monkeypatch.setenv("EPS_STREAM_SCALE", "abc")
    code, out = run_cli(["build", "--input", str(path), "--family", "quadrant", "--eps", "1/2"])
    assert code == 2 and out == ""
    assert "EPS_STREAM_SCALE" in capsys.readouterr().err


@pytest.mark.parametrize("flag,env,code", [
    (["--scale=0"], None, 3),
    (["--scale=-5"], None, 3),
    (["--scale", "abc"], None, 2),
    ([], "0", 3),
    ([], "-5", 3),
])
def test_scale_must_be_a_positive_integer(tmp_path, monkeypatch, capsys, flag, env, code):
    """A scale below 1 would map every coordinate to 0 or mirror the input."""
    path = tmp_path / "p.txt"
    path.write_text("1,1\n2,2\n3,0\n")
    snap = tmp_path / "s.json"
    if env is not None:
        monkeypatch.setenv("EPS_STREAM_SCALE", env)
    assert run_cli([*flag, "build", "--input", str(path), "--family", "quadrant",
                    "--eps", "1/2", "--snapshot", str(snap)]) == (code, "")
    assert not snap.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and "scale" in err


@pytest.mark.parametrize("kind", ["snapshot", "state"])
def test_header_with_scale_zero_is_a_config_error(tmp_path, three_points, capsys, kind):
    saved = tmp_path / f"{kind}.json"
    assert run_cli(["--scale", "1", "build", "--input", str(three_points), "--family",
                    "halfplane", "--eps", "1/2", f"--{kind}", str(saved)])[0] == 0
    data = json.loads(saved.read_text())
    header = data["snapshot"] if kind == "snapshot" else data["config"]
    header["scale"] = 0
    saved.write_text(json.dumps(data))
    if kind == "snapshot":
        args = ["net", "--snapshot", str(saved)]
    else:
        args = ["build", "--input", str(three_points), "--family", "halfplane", "--eps", "1/2",
                "--resume", str(saved)]
    assert run_cli(["--scale", "1", *args]) == (3, "")
    assert "scale must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("scale,flags", [
    ("1", ["--family", "disk", "--eps", "1/4"]),
    ("1", ["--family", "halfplane", "--eps", "1/2"]),
    ("1", ["--family", "quadrant", "--eps", "1/2"]),
    ("2", ["--family", "halfplane", "--eps", "1/4"]),
])
def test_resume_rejects_mismatched_config(tmp_path, stream_file, capsys, scale, flags):
    state = tmp_path / "state.json"
    assert run_cli(["--scale", "1", "build", "--input", str(stream_file), "--family", "halfplane",
                    "--eps", "1/4", "--state", str(state)])[0] == 0
    before = state.read_text()
    code, out = run_cli(["--scale", scale, "build", "--input", str(stream_file),
                         "--resume", str(state), "--state", str(state)] + flags)
    assert code == 3 and out == ""
    assert "resumed state has" in capsys.readouterr().err
    assert state.read_text() == before


def _resume_edited_state(tmp_path, stream_file, edit):
    state = tmp_path / "state.json"
    assert run_cli(["--scale", "1", "build", "--input", str(stream_file), "--family", "halfplane",
                    "--eps", "1/4", "--state", str(state)])[0] == 0
    data = json.loads(state.read_text())
    edit(data)
    state.write_text(json.dumps(data))
    before = state.read_text()
    code, out = run_cli(["--scale", "1", "build", "--input", str(stream_file), "--family",
                         "halfplane", "--eps", "1/4", "--resume", str(state),
                         "--state", str(state)])
    assert out == "" and state.read_text() == before
    return code


def _top_slot(data):
    return max(data["slots"], key=lambda slot: slot["level"])


@pytest.mark.parametrize("edit,message", [
    (lambda data: [data.clear(), data.update(version=2)], "'config'"),
    (lambda data: data.pop("n"), "'n'"),
    (lambda data: data.update(slots=5), "not iterable"),
    (lambda data: data.update(config=[]), "list indices"),
    (lambda data: _top_slot(data)["sample"].pop("points"), "'points'"),
], ids=["only-version", "no-n", "slots-not-a-list", "config-not-an-object",
        "sample-without-points"])
def test_resume_reports_missing_or_malformed_field(tmp_path, stream_file, capsys, edit, message):
    assert _resume_edited_state(tmp_path, stream_file, edit) == 2
    err = capsys.readouterr().err
    assert "not a state file" in err and message in err


def _raise_slot_certificate(data):
    _top_slot(data)["sample"]["eps_bound"] = "1/8"


def _halve_slot_weights(data):
    # the level-5 top slot's sample still sums to its total, but weighs 16
    sample = _top_slot(data)["sample"]
    for row in sample["points"]:
        row[2] = str(Fraction(row[2]) / 2)
    sample["total_weight"] = str(Fraction(sample["total_weight"]) / 2)


def _negate_first_weight(sample):
    row = sample["points"][0]
    row[2] = "-" + row[2]


@pytest.mark.parametrize("edit,message", [
    (_raise_slot_certificate, "exceeds its budget"),
    (_halve_slot_weights, "sample weighs 16/1, not 2^5"),
    pytest.param(lambda data: _top_slot(data).update(level=10 ** 9), "slot levels do not match n",
                 id="huge-level"),
    pytest.param(lambda data: data.update(n=-16, slots=data["slots"][:1]),  # level 4 only
                 "slot levels do not match n", id="negative-n"),
    pytest.param(lambda data: _negate_first_weight(_top_slot(data)["sample"]),
                 "weights must be positive", id="negative-weight"),
    pytest.param(lambda data: _top_slot(data)["sample"].update(family="disk"),
                 "sample family 'disk'", id="slot-family"),
])
def test_resume_rejects_inconsistent_slot(tmp_path, stream_file, capsys, edit, message):
    assert _resume_edited_state(tmp_path, stream_file, edit) == 3
    assert message in capsys.readouterr().err


def _edited_snapshot(tmp_path, stream_file, edit):
    snap = tmp_path / "snap.json"
    assert run_cli(["--scale", "1", "build", "--input", str(stream_file),
                    "--family", "halfplane", "--eps", "1/2", "--snapshot", str(snap)])[0] == 0
    data = json.loads(snap.read_text())
    edit(data)
    snap.write_text(json.dumps(data))
    return snap


def _set_sample_family(data):
    data["sample"]["family"] = "disk"


def _set_header_certificate(data):
    claimed = Fraction(data["snapshot"]["certified_error"]) + Fraction(1, 64)
    data["snapshot"]["certified_error"] = str(claimed)


def _raise_certificate(data):
    data["snapshot"]["certified_error"] = data["sample"]["eps_bound"] = "3/4"


def _set_header_n(data):
    data["snapshot"]["n"] = 4000


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda data: _negate_first_weight(data["sample"]), "weights must be positive",
                 id="negative-weight"),
    (_set_sample_family, "sample family 'disk'"),
    (_set_header_certificate, "header certifies"),
    (_raise_certificate, "exceeds eps"),
    (_set_header_n, "n=4000"),
])
def test_snapshot_load_rejects_inconsistent_file(tmp_path, stream_file, capsys, edit, message):
    snap = _edited_snapshot(tmp_path, stream_file, edit)
    for args in (["net"], ["stats", "tukey-median"]):
        code, out = run_cli(args + ["--snapshot", str(snap)])
        assert code == 3 and out == ""
        assert message in capsys.readouterr().err


def test_snapshot_load_accepts_unedited_file(tmp_path, stream_file):
    snap = _edited_snapshot(tmp_path, stream_file, lambda data: None)
    assert run_cli(["net", "--snapshot", str(snap)])[0] == 0


def test_snapshot_load_reports_missing_field(tmp_path, stream_file, capsys):
    snap = _edited_snapshot(tmp_path, stream_file,
                            lambda data: data["snapshot"].pop("certified_error"))
    code, out = run_cli(["net", "--snapshot", str(snap)])
    assert code == 2 and out == ""
    assert "certified_error" in capsys.readouterr().err


def test_resume_rejects_edited_reduce_thresholds(tmp_path, stream_file, capsys):
    def edit(data):
        data["config"]["reduce_thresholds"] = [["disk", 1], ["halfplane", 1]]

    assert _resume_edited_state(tmp_path, stream_file, edit) == 3
    assert "reduce thresholds" in capsys.readouterr().err


# A file that does not parse, or a sample row that does not, is a parse error
# (exit 2) like a missing field; rows that parse but break an invariant are not.
MALFORMED_ROWS = pytest.mark.parametrize("row", [[1, 2], ["abc", 0, "1/1"], [0, 0, "1/0"], 7],
                                         ids=["short", "non-numeric", "zero-denominator",
                                              "not-a-list"])


def _snapshot_commands(tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("net\n")
    return (["net"], ["stats", "tukey-median"], ["query", "--queries", str(queries)])


def test_truncated_snapshot_is_parse_error(tmp_path, stream_file, capsys):
    snap = _edited_snapshot(tmp_path, stream_file, lambda data: None)
    snap.write_text(snap.read_text()[:-9])
    for args in _snapshot_commands(tmp_path):
        code, out = run_cli(args + ["--snapshot", str(snap)])
        assert code == 2 and out == ""
        assert "not a snapshot file" in capsys.readouterr().err


@MALFORMED_ROWS
def test_snapshot_with_malformed_row_is_parse_error(tmp_path, stream_file, capsys, row):
    snap = _edited_snapshot(tmp_path, stream_file,
                            lambda data: data["sample"]["points"].__setitem__(0, row))
    for args in _snapshot_commands(tmp_path):
        code, out = run_cli(args + ["--snapshot", str(snap)])
        assert code == 2 and out == ""
        assert "not a snapshot file" in capsys.readouterr().err


def test_truncated_state_is_parse_error(tmp_path, stream_file, capsys):
    state = tmp_path / "state.json"
    assert run_cli(["--scale", "1", "build", "--input", str(stream_file), "--family", "halfplane",
                    "--eps", "1/4", "--state", str(state)])[0] == 0
    state.write_text(state.read_text()[:-9])
    before = state.read_text()
    code, out = run_cli(["--scale", "1", "build", "--input", str(stream_file), "--family",
                         "halfplane", "--eps", "1/4", "--resume", str(state),
                         "--state", str(state)])
    assert code == 2 and out == "" and state.read_text() == before
    assert "not a state file" in capsys.readouterr().err


@MALFORMED_ROWS
def test_state_with_malformed_row_is_parse_error(tmp_path, stream_file, capsys, row):
    def edit(data):
        _top_slot(data)["sample"]["points"][0] = row

    assert _resume_edited_state(tmp_path, stream_file, edit) == 2
    assert "not a state file" in capsys.readouterr().err


# A scalar field that does not parse is a parse error (exit 2), checked
# before any value is; an out-of-range value or unknown family is not (exit 3).
@pytest.mark.parametrize("field,value,code", [
    ("eps", "1/0", 2), ("eps", "abc", 2), ("certified_error", "1/0", 2), ("n", "x", 2),
    ("n", float("inf"), 2), ("eps", "2", 3), ("family", 5, 3),
], ids=["eps-zero-denominator", "eps-non-numeric", "certificate-zero-denominator",
        "n-non-numeric", "n-infinite", "eps-out-of-range", "family-not-a-name"])
def test_snapshot_scalar_field(tmp_path, stream_file, capsys, field, value, code):
    snap = _edited_snapshot(tmp_path, stream_file,
                            lambda data: data["snapshot"].__setitem__(field, value))
    for args in _snapshot_commands(tmp_path):
        assert run_cli(args + ["--snapshot", str(snap)]) == (code, "")
        assert ("not a snapshot file" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("edit,code", [
    (lambda data: data["config"].__setitem__("eps", "1/0"), 2),
    (lambda data: _top_slot(data).__setitem__("level", "x"), 2),
    (lambda data: data["config"].__setitem__("eps", "3/2"), 3),
], ids=["eps-zero-denominator", "level-non-numeric", "eps-out-of-range"])
def test_state_scalar_field(tmp_path, stream_file, capsys, edit, code):
    assert _resume_edited_state(tmp_path, stream_file, edit) == code
    assert ("not a state file" in capsys.readouterr().err) == (code == 2)


def test_resume_rejects_version_1_state(tmp_path, stream_file, capsys):
    def to_version_1(data):
        # the version-1 layout: a config c and a per-slot copy of eps_bound
        data.update(version=1)
        data["config"]["c"] = "1/1"
        for slot in data["slots"]:
            slot["delta"] = slot["sample"]["eps_bound"]

    assert _resume_edited_state(tmp_path, stream_file, to_version_1) == 3
    assert "unsupported state version 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,stat", sorted(REQUIRED_FLAGS))
def test_missing_required_flag_is_config_error(tmp_path, stream_file, capsys, command, stat):
    snap = _edited_snapshot(tmp_path, stream_file, lambda data: None)
    source = ["--snapshot", str(snap)] if command == "stats" else ["--input", str(stream_file)]
    assert run_cli(["--scale", "1", command, stat] + source) == (3, "")
    flag = REQUIRED_FLAGS[(command, stat)]
    assert f"{stat} needs --{flag}" in capsys.readouterr().err


# -- mutated files -----------------------------------------------------------------

# Values no field of a snapshot or state file accepts.
_JUNK = st.sampled_from([None, "", "abc", "1/0", {}, [[]]])


def _json_paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _json_paths(value, path + (key,))


@st.composite
def _mutated_text(draw, doc):
    """The JSON text of ``doc`` with one value (or the whole document)
    replaced by junk, one key or list item deleted, or cut short."""
    text = json.dumps(doc)
    how = draw(st.sampled_from(["replace", "delete", "truncate"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_json_paths(doc))[how == "delete":]))
    if not path:
        return json.dumps(draw(_JUNK))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if how == "replace":
        parent[path[-1]] = draw(_JUNK)
    else:
        del parent[path[-1]]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    stream = root / "pts.txt"
    stream.write_text("".join(f"{p.x},{p.y}\n" for p in make_stream("uniform", 48, seed=1)))
    state, snap, queries = root / "state.json", root / "snap.json", root / "q.txt"
    assert run_cli(["--scale", "1", "build", "--input", str(stream), "--family", "halfplane",
                    "--eps", "1/4", "--state", str(state), "--snapshot", str(snap)])[0] == 0
    queries.write_text("net\ncount halfplane:1,0,0\n")
    return root, stream, json.loads(state.read_text()), json.loads(snap.read_text()), queries


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_snapshot_exits_2_or_3(saved_files, data):
    """A snapshot file broken anywhere is a parse (2) or validation (3)
    error for every command that loads one, never a traceback."""
    root, _, _, snap, queries = saved_files
    path = root / "mutated_snap.json"
    path.write_text(data.draw(_mutated_text(snap)))
    for args in (["stats", "tukey-median"], ["query", "--queries", str(queries)]):
        code, out = run_cli(args + ["--snapshot", str(path)])
        assert code in (2, 3) and out == ""


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_state_exits_2_or_3(saved_files, data):
    """A state file broken anywhere stops ``build --resume`` with a parse (2)
    or validation (3) error, never a traceback, and writes nothing."""
    root, stream, state, _, _ = saved_files
    path, out_state = root / "mutated_state.json", root / "resumed_state.json"
    path.write_text(data.draw(_mutated_text(state)))
    out_state.unlink(missing_ok=True)
    code, out = run_cli(["--scale", "1", "build", "--input", str(stream), "--family", "halfplane",
                         "--eps", "1/4", "--resume", str(path), "--state", str(out_state)])
    assert code in (2, 3) and out == "" and not out_state.exists()
