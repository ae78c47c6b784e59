"""CLI subcommands end to end: reports, exit codes, SVG output, determinism."""
import contextlib
import importlib
import importlib.util
import io
import json
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fpindex.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def _load_renders():
    """The RENDERS table of scripts/render_figures.py: each committed figure
    under figures/ with the CLI arguments that draw it."""
    spec = importlib.util.spec_from_file_location(
        "render_figures", ROOT / "scripts" / "render_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RENDERS


RENDERS = _load_renders()


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestIndexCommand:
    def test_disjoint_pair_reports_zero(self, capsys):
        code, report = run(capsys, "index", fx("fig_disjoint_first.json"),
                           fx("fig_disjoint_second.json"),
                           fx("identity_corner_map.json"))
        assert code == 0
        assert report == {"eta": 0, "crossings": 0, "transverse": True}

    def test_interleaved_pair_reports_minus_one(self, capsys):
        code, report = run(capsys, "index", fx("fig_interleaved_first.json"),
                           fx("fig_interleaved_second.json"),
                           fx("identity_corner_map.json"))
        assert code == 0
        assert report["eta"] == -1
        assert report["crossings"] == 4

    def test_identity_self_map_exits_two(self, capsys):
        code, report = run(capsys, "index", fx("fig_disjoint_first.json"),
                           fx("fig_disjoint_first.json"),
                           fx("identity_corner_map.json"))
        assert code == 2
        assert report["error"] == "HasFixedPoint"
        assert report["reason"]

    def test_missing_file_exits_two(self, capsys):
        code, report = run(capsys, "index", fx("no_such_file.json"),
                           fx("fig_disjoint_second.json"),
                           fx("identity_corner_map.json"))
        assert code == 2
        assert report["error"] == "InputRejection"

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, report = run(capsys, "index", str(bad),
                           fx("fig_disjoint_second.json"),
                           fx("identity_corner_map.json"))
        assert code == 2
        assert report["error"] == "InputRejection"

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200_000],
                             ids=["not_utf8", "deep_nesting"])
    def test_unreadable_json_exits_two(self, capsys, tmp_path, content):
        # a decoding error or the parser's recursion limit is a rejected
        # input, not a traceback
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, report = run(capsys, "cut", str(bad),
                           fx("fig_twelve_second.json"))
        assert code == 2
        assert set(report) == {"error", "reason"}
        assert report["error"] == "InputRejection"

    def test_report_bytes_are_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["index", fx("fig_interleaved_first.json"),
                         fx("fig_interleaved_second.json"),
                         fx("identity_corner_map.json"),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTorusCommand:
    def test_interleaved_diagram_report(self, capsys, tmp_path):
        svg = tmp_path / "torus.svg"
        code, report = run(capsys, "torus", fx("fig_interleaved_first.json"),
                           fx("fig_interleaved_second.json"),
                           fx("corner_constraints.json"), "--svg", str(svg))
        assert code == 0
        assert report["size"] == 7
        assert report["crossings"] == 4
        assert report["cols"][0] == ["c", 1]
        assert len(report["marks"]) == 4
        assert all(m["kind"] in ("P", "PTILDE") for m in report["marks"])
        ET.fromstring(svg.read_text())


class TestPrescribeCommand:
    def test_disjoint_trace_depth_zero(self, capsys):
        code, report = run(capsys, "prescribe", fx("fig_disjoint_first.json"),
                           fx("fig_disjoint_second.json"),
                           fx("corner_constraints.json"))
        assert code == 0
        assert report["w"] == 0
        assert report["depth"] == 0

    def test_four_crossing_trace_depth_one(self, capsys):
        code, report = run(capsys, "prescribe",
                           fx("fig_interleaved_first.json"),
                           fx("fig_interleaved_second.json"),
                           fx("corner_constraints.json"))
        assert code == 0
        assert report["w"] >= 0
        assert report["depth"] == 1
        assert report["eta_realized"] == report["w"]

    def test_twelve_crossing_matches_golden_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["prescribe", fx("fig_twelve_first.json"),
                     fx("fig_twelve_second.json"),
                     fx("twelve_constraints.json"), "--out", str(out)]) == 0
        golden = (FIXTURES / "golden_twelve_trace.json").read_bytes()
        assert out.read_bytes() == golden

    def test_pairs_out_of_listed_order_exit_two(self, capsys, tmp_path):
        # rows 2 and 3 swapped: the same cyclic order on both curves, but
        # not listed in that order from the first pair
        data = json.loads((FIXTURES / "twelve_constraints.json").read_text())
        rows = data["constraints"]
        rows[1], rows[2] = rows[2], rows[1]
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps(data))
        code, report = run(capsys, "prescribe", fx("fig_twelve_first.json"),
                           fx("fig_twelve_second.json"), str(swapped))
        assert code == 2
        assert report["error"] == "OrderViolation"
        assert report["reason"] == ("prescribed pairs must be listed in "
                                    "cyclic order from the first pair")

    def test_svg_per_level(self, capsys, tmp_path):
        svg = tmp_path / "levels.svg"
        code, report = run(capsys, "prescribe",
                           fx("fig_interleaved_first.json"),
                           fx("fig_interleaved_second.json"),
                           fx("corner_constraints.json"), "--svg", str(svg))
        assert code == 0
        for depth in range(report["depth"] + 1):
            level_file = tmp_path / f"levels-L{depth}.svg"
            assert level_file.exists()
            ET.fromstring(level_file.read_text())

    @pytest.mark.parametrize("name", ["./twelve", "figs.v2/twelve"])
    def test_svg_without_extension_keeps_its_directory(self, capsys, tmp_path,
                                                       monkeypatch, name):
        (tmp_path / "figs.v2").mkdir()
        monkeypatch.chdir(tmp_path)
        code, report = run(capsys, "prescribe", fx("fig_twelve_first.json"),
                           fx("fig_twelve_second.json"),
                           fx("twelve_constraints.json"), "--svg", name)
        assert code == 0
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*.svg"))
        stem = name.removeprefix("./")
        assert written == sorted(f"{stem}-L{depth}.svg"
                                 for depth in range(report["depth"] + 1))


class TestCutCommand:
    def test_interleaved_rectangles_cut(self, capsys):
        code, report = run(capsys, "cut", fx("fig_interleaved_first.json"),
                           fx("fig_interleaved_second.json"))
        assert code == 0
        assert report == {"cuts": True, "crossings": 4}

    def test_disjoint_do_not_cut(self, capsys):
        code, report = run(capsys, "cut", fx("fig_disjoint_first.json"),
                           fx("fig_disjoint_second.json"))
        assert code == 0
        assert report == {"cuts": False, "crossings": 0}


    @pytest.mark.parametrize("vertices, reason", [
        ([[0, 1, 0, 1], [1, 1, 0, 1]], "first curve needs at least 3 vertices"),
        ([[0, 1, 0, 1], [1, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1]],
         "first curve has equal consecutive vertices 1 and 2"),
        ([[0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1], [0, 1, 0, 1]],
         "first curve has equal consecutive vertices 3 and 0"),
    ])
    def test_degenerate_curve_exits_two(self, capsys, tmp_path, vertices,
                                        reason):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": vertices}))
        code, report = run(capsys, "cut", str(bad),
                           fx("fig_disjoint_second.json"))
        assert code == 2
        assert report == {"error": "DegenerateLoop", "reason": reason}


class TestIncompatCommand:
    def test_one_piece_fixture(self, capsys):
        code, report = run(capsys, "incompat", fx("pack_one_a.json"),
                           fx("pack_one_b.json"), fx("corr_one.json"))
        assert code == 0
        assert report["cutting_index"] == 0
        cert = report["certificate"]
        assert cert["rect_index"] == -1
        assert cert["piece_indices"] == [-1]
        assert cert["identity_holds"] is True
        assert report["overlay"]["total"] == 16

    def test_two_piece_fixture(self, capsys):
        code, report = run(capsys, "incompat", fx("pack_two_a.json"),
                           fx("pack_two_b.json"), fx("corr_two.json"))
        assert code == 0
        assert report["cutting_index"] == 0
        cert = report["certificate"]
        assert cert["piece_indices"] == [-1, 0]
        assert all(v >= 0 for v in cert["interstice_indices"])
        assert cert["identity_holds"] is True

    def test_epsilon_nudge_still_cuts(self, capsys):
        code, report = run(capsys, "incompat", fx("pack_one_a.json"),
                           fx("pack_one_b.json"), fx("corr_one.json"),
                           "--epsilon", "1/1000")
        assert code == 0
        assert report["epsilon"] == [1, 1000]
        assert report["cutting_index"] == 0
        assert report["certificate"]["identity_holds"] is True

    def test_overlay_checked_once(self, capsys, monkeypatch):
        import fpindex.packing as packing
        calls = []
        check = packing.check_overlay_transverse
        monkeypatch.setattr(packing, "check_overlay_transverse",
                            lambda a, b: calls.append(1) or check(a, b))
        code, _ = run(capsys, "incompat", fx("pack_two_a.json"),
                      fx("pack_two_b.json"), fx("corr_two.json"))
        assert code == 0
        assert len(calls) == 1

    def test_degenerate_piece_exits_two(self, capsys, tmp_path):
        packing = json.loads(Path(fx("pack_one_b.json")).read_text())
        packing["pieces"][0]["vertices"] = packing["pieces"][0]["vertices"][:2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(packing))
        code, report = run(capsys, "incompat", fx("pack_one_a.json"),
                           str(bad), fx("corr_one.json"))
        assert code == 2
        assert report == {
            "error": "DegenerateLoop",
            "reason": "second packing.pieces[0] needs at least 3 vertices"}

    def test_self_overlay_exits_two(self, capsys):
        code, report = run(capsys, "incompat", fx("pack_one_a.json"),
                           fx("pack_one_a.json"), fx("corr_one.json"))
        assert code == 2
        assert report["error"] == "NotTransverseOverlay"

    def test_bad_epsilon_exits_two(self, capsys):
        code, report = run(capsys, "incompat", fx("pack_one_a.json"),
                           fx("pack_one_b.json"), fx("corr_one.json"),
                           "--epsilon", "0.5x")
        assert code == 2
        assert report["error"] == "InputRejection"


class TestRenderCommand:
    @pytest.mark.parametrize("kind,inputs", [
        ("torus", ("fig_interleaved_first.json",
                   "fig_interleaved_second.json", "corner_constraints.json")),
        ("overlay", ("pack_one_a.json", "pack_one_b.json")),
        ("faces", ("fig_interleaved_first.json",
                   "fig_interleaved_second.json")),
        ("faces", ("fig_disjoint_first.json", "fig_disjoint_second.json")),
    ])
    def test_emits_wellformed_svg(self, capsys, tmp_path, kind, inputs):
        svg = tmp_path / f"{kind}.svg"
        code, report = run(capsys, "render", kind,
                           *[fx(name) for name in inputs], "--svg", str(svg))
        assert code == 0
        assert report["kind"] == kind
        content = svg.read_text()
        assert content.startswith("<?xml")
        root = ET.fromstring(content)
        assert root.tag.endswith("svg")
        assert len(list(root)) > 2

    @pytest.mark.parametrize("name, argv", RENDERS,
                             ids=[name for name, _ in RENDERS])
    def test_reproduces_committed_figure(self, capsys, monkeypatch, tmp_path,
                                         name, argv):
        # the fixture paths in RENDERS are relative to the checkout
        monkeypatch.chdir(ROOT)
        svg = tmp_path / name
        code, report = run(capsys, *argv, "--svg", str(svg))
        assert code == 0
        assert svg.read_bytes() == (ROOT / "figures" / name).read_bytes()
        committed = json.loads(
            (ROOT / "figures" / f"{name}.report.json").read_text())
        assert report == {**committed, "svg": str(svg)}

    def test_missing_svg_flag_exits_two(self, capsys):
        code, report = run(capsys, "render", "overlay",
                           fx("pack_one_a.json"), fx("pack_one_b.json"))
        assert code == 2
        assert report["error"] == "InputRejection"



class TestUnwritableOutput:
    """An output path in a missing directory is a rejected input."""

    def test_cut_out_reports_on_stdout(self, capsys, tmp_path):
        out = tmp_path / "missing" / "cut.json"
        code, report = run(capsys, "cut", fx("fig_interleaved_first.json"),
                           fx("fig_interleaved_second.json"),
                           "--out", str(out))
        assert code == 2
        assert report["error"] == "InputRejection"
        assert report["reason"].startswith(f"cannot write {out}: ")

    @pytest.mark.parametrize("argv", [
        ("render", "faces", "fig_interleaved_first.json",
         "fig_interleaved_second.json"),
        ("prescribe", "fig_interleaved_first.json",
         "fig_interleaved_second.json", "corner_constraints.json"),
    ], ids=["render_faces", "prescribe"])
    def test_svg_exits_two(self, capsys, tmp_path, argv):
        svg = tmp_path / "missing" / "figure.svg"
        command = [fx(a) if a.endswith(".json") else a for a in argv]
        code, report = run(capsys, *command, "--svg", str(svg))
        assert code == 2
        assert report["error"] == "InputRejection"
        assert report["reason"].startswith("cannot write ")


class TestSelftestCommand:
    def test_passes_and_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["selftest", "--seed", "11", "--trials", "4",
                     "--out", str(first)]) == 0
        assert main(["selftest", "--seed", "11", "--trials", "4",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert report["ok"] is True
        assert [s["name"] for s in report["suites"]] == [
            "circle_index", "prescribe", "packing_kernel"]
        assert all(s["violations"] == [] for s in report["suites"])

    def test_different_seed_changes_report(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["selftest", "--seed", "1", "--trials", "4",
                     "--out", str(a)]) == 0
        assert main(["selftest", "--seed", "2", "--trials", "4",
                     "--out", str(b)]) == 0
        assert json.loads(a.read_text())["seed"] != \
            json.loads(b.read_text())["seed"]

    def test_violation_exits_one_with_the_full_report(self, capsys,
                                                      monkeypatch):
        selftest = importlib.import_module("fpindex.selftest")
        violation = {"name": "packing_kernel", "trials": 1,
                     "violations": [{"why": "planted"}]}
        monkeypatch.setattr(selftest, "_suite_packing", lambda *_: violation)
        code, report = run(capsys, "selftest", "--trials", "1")
        assert code == 1
        assert report["ok"] is False
        assert report["suites"][-1] == violation

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exit_two(self, capsys, trials):
        code, report = run(capsys, "selftest", "--trials", trials)
        assert code == 2
        assert report == {"error": "InputRejection",
                          "reason": f"--trials must be at least 1, got {trials}"}


class TestCompareOutputsScript:
    def test_parent_src_checkout_mixes_the_two(self, tmp_path):
        # this checkout's scripts and tests with the other checkout's src/,
        # copied without bytecode, so the scripts find that src/ beside them
        spec = importlib.util.spec_from_file_location(
            "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        parent = tmp_path / "parent"
        (parent / "src" / "fpindex" / "__pycache__").mkdir(parents=True)
        (parent / "src" / "fpindex" / "marker.py").write_text("MARK = 1\n")
        (parent / "src" / "fpindex" / "__pycache__" / "x.pyc").write_bytes(b"")
        mixed = script.mixed_checkout(parent, tmp_path / "mixed")
        assert sorted(p.name for p in mixed.iterdir()) == [
            "scripts", "src", "tests"]
        assert [p.name for p in (mixed / "src" / "fpindex").iterdir()] == [
            "marker.py"]
        for name in ("scripts/kernel_dump.py", "scripts/cli_snapshot.py",
                     "scripts/make_fixtures.py", "tests/geomgen.py",
                     "tests/fixtures/golden_twelve_trace.json"):
            assert (mixed / name).read_bytes() == (ROOT / name).read_bytes()
        assert not list(mixed.rglob("__pycache__"))


# -- fuzzing main() on mutated fixtures ----------------------------------------

# Every command that reads files, on shipped fixtures; "{svg}" is the SVG
# output path. selftest reads no file.
FUZZ_RUNS = (
    ("index", "fig_interleaved_first.json", "fig_interleaved_second.json",
     "identity_corner_map.json"),
    ("index", "fig_twelve_first.json", "fig_twelve_second.json",
     "identity_corner_map.json"),
    ("torus", "fig_twelve_first.json", "fig_twelve_second.json",
     "twelve_constraints.json"),
    ("prescribe", "fig_twelve_first.json", "fig_twelve_second.json",
     "twelve_constraints.json"),
    ("prescribe", "fig_interleaved_first.json", "fig_interleaved_second.json",
     "corner_constraints.json"),
    ("cut", "fig_twelve_first.json", "fig_twelve_second.json"),
    ("incompat", "pack_one_a.json", "pack_one_b.json", "corr_one.json"),
    ("incompat", "pack_two_a.json", "pack_two_b.json", "corr_two.json"),
    ("render", "faces", "fig_twelve_first.json", "fig_twelve_second.json",
     "--svg", "{svg}"),
    ("render", "overlay", "pack_two_a.json", "pack_two_b.json",
     "--svg", "{svg}"),
    ("render", "torus", "fig_interleaved_first.json",
     "fig_interleaved_second.json", "corner_constraints.json",
     "--svg", "{svg}"),
)


def json_positions(value, here=()):
    """(keys to it, value) for every position in a JSON value."""
    yield here, value
    if isinstance(value, (dict, list)):
        keys = value if isinstance(value, dict) else range(len(value))
        for k in keys:
            yield from json_positions(value[k], (*here, k))


@st.composite
def mutated(draw, value):
    """value with one to three mutations: an integer perturbed or replaced
    by a small one, or a list (vertices, constraints, breakpoints, a
    correspondence) with an entry dropped or duplicated, reversed, or with
    two entries swapped. Strategies are drawn by index, so hypothesis
    builds no new strategy per example."""
    for _ in range(draw(st.integers(1, 3))):
        places = [(w, v) for w, v in json_positions(value)
                  if w and (isinstance(v, int) or isinstance(v, list) and v)]
        where, target = places[draw(st.integers(0, len(places) - 1))]
        parent = value
        for k in where[:-1]:
            parent = parent[k]
        if isinstance(target, int):
            parent[where[-1]] = (target + draw(st.integers(-2, 2))
                                 if draw(st.booleans()) else
                                 draw(st.integers(-2, 8)))
            continue
        action = draw(st.integers(0, 3))
        k, k2 = (draw(st.integers(0, len(target) - 1)) for _ in range(2))
        if action == 0:
            del target[k]
        elif action == 1:
            target.insert(k, json.loads(json.dumps(target[k])))
        elif action == 2:
            target.reverse()
        else:
            target[k], target[k2] = target[k2], target[k]
    return value


@pytest.mark.parametrize("command", FUZZ_RUNS,
                         ids=["-".join(c[:2]).removesuffix(".json")
                              for c in FUZZ_RUNS])
@settings(derandomize=True, database=None, deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_fixtures_exit_with_one_json_report(command, data):
    """main() on mutated fixtures exits 0, 1 or 2 and prints one JSON
    object, which names the error and its reason on exits 1 and 2."""
    names = tuple([a for a in command if a.endswith(".json")])
    mutate = data.draw(st.sets(st.sampled_from(names), min_size=1))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in names:
            paths[name] = fx(name)
            if name in mutate:
                value = json.loads((FIXTURES / name).read_text())
                paths[name] = str(Path(tmp) / name)
                Path(paths[name]).write_text(
                    json.dumps(data.draw(mutated(value))))
        argv = [paths.get(a, a).replace("{svg}", str(Path(tmp) / "out.svg"))
                for a in command]
        if command[0] == "incompat":
            epsilon = data.draw(st.sampled_from(
                (None, "1/1000", "0", "-1/3", "1/0", "x")))
            argv += [] if epsilon is None else [f"--epsilon={epsilon}"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2) and isinstance(report, dict)
    if code:
        assert set(report) == {"error", "reason"} and report["reason"]
