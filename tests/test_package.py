"""The package's public names, and the modules each entry point loads.

Every check runs in a fresh interpreter: what a process has already imported
decides both what `from fpindex import ...` finds and what `sys.modules`
holds. The load checks count modules, not milliseconds.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

PUBLIC = [
    "ContactGraph", "Fraction", "MeetKind", "PLCorrespondence", "PLLoop",
    "PackingSpec", "PointLocation", "PolyJordanCurve", "RatPoint", "Segment",
    "SegmentMeeting", "TheoremCertificate", "TopoRectangle",
    "assemble_theorem_certificate", "build_diagram", "canonical_noncut_pair",
    "check_overlay_transverse", "check_transverse", "cuts_each_other",
    "find_cutting_pair", "fixed_point_index", "glue", "index_from_torus",
    "isomorphic_contact", "oracle_enumerate", "orient2d",
    "path_of_correspondence", "point_in_polygon", "prescribe", "pt", "rat",
    "realize_path", "segment_intersection", "signed_area",
    "translate_packing", "validate_curve", "validate_packing",
    "winding_number",
]


def fresh(code: str):
    """Run code in a new interpreter on this checkout's sources and return
    the JSON value it prints last."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("print(json.dumps(sorted(m[8:] for m in sys.modules"
          " if m.startswith('fpindex.'))))")


class TestPublicNames:
    def test_every_name_is_its_home_modules_object(self):
        assert fresh("""
import importlib, json, fpindex
bad = []
for name in fpindex.__all__:
    home = importlib.import_module("fpindex." + fpindex._EXPORTS[name])
    obj = getattr(fpindex, name)
    if obj is not getattr(home, name):
        bad.append(name)
    if getattr(obj, "__module__", "").startswith("fpindex.") and \\
            obj.__module__ != home.__name__:
        bad.append(name)
print(json.dumps([fpindex.__all__, bad]))
""") == [PUBLIC, []]

    @pytest.mark.parametrize("first", [
        "import fpindex.cli; import fpindex.packing; import fpindex.prescribe",
        "import fpindex.prescribe",
        "from fpindex.prescribe import oracle_enumerate",
        "import fpindex",
    ])
    def test_prescribe_is_the_function_in_every_import_order(self, first):
        assert fresh(first + """
import json, sys, types
from fpindex import prescribe
import fpindex
module = sys.modules["fpindex.prescribe"]
print(json.dumps([isinstance(prescribe, types.FunctionType),
                  prescribe is module.prescribe,
                  fpindex.prescribe is module.prescribe]))
""") == [True, True, True]

    def test_submodule_imports_after_the_function_is_bound(self):
        # `import fpindex.prescribe as P` reads the package attribute, which
        # is the function; importing names from the module still works.
        assert fresh("""
import json, types
import fpindex
fpindex.prescribe
import fpindex.prescribe as P
from fpindex.prescribe import classify_box
print(json.dumps([isinstance(P, types.FunctionType),
                  classify_box.__module__]))
""") == [True, "fpindex.prescribe"]

    def test_dir_and_star_import_list_every_name(self):
        names, starred = fresh("""
import json, fpindex
scope = {}
exec("from fpindex import *", scope)
print(json.dumps([dir(fpindex), sorted(k for k in scope if k[0] != "_")]))
""")
        assert set(PUBLIC) <= set(names)
        assert starred == PUBLIC

    def test_unknown_name_raises_attribute_error(self):
        assert fresh("""
import json, fpindex
try:
    fpindex.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""") == "module 'fpindex' has no attribute 'no_such_name'"


def fx(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


TWELVE = [fx("fig_twelve_first"), fx("fig_twelve_second")]
CORE = ["cli", "errors", "exact_geom", "jordan"]
LAYERS = {  # command: argv, and the modules it loads beyond CORE
    "cut": (["cut", *TWELVE], ["serialize"]),
    "index": (["index", fx("fig_interleaved_first"),
               fx("fig_interleaved_second"), fx("identity_corner_map")],
              ["plmap", "serialize"]),
    "torus": (["torus", *TWELVE, fx("twelve_constraints")],
              ["plmap", "serialize", "torus"]),
    "prescribe": (["prescribe", *TWELVE, fx("twelve_constraints")],
                  ["plmap", "prescribe", "serialize", "torus"]),
    "incompat": (["incompat", fx("pack_one_a"), fx("pack_one_b"),
                  fx("corr_one")],
                 ["packing", "plmap", "prescribe", "serialize", "torus"]),
    "render_faces": (["render", "faces", *TWELVE], ["serialize", "svg"]),
    "render_overlay": (["render", "overlay", fx("pack_two_a"),
                        fx("pack_two_b")],
                       ["packing", "plmap", "serialize", "svg"]),
    "render_torus": (["render", "torus", *TWELVE, fx("twelve_constraints")],
                     ["plmap", "prescribe", "serialize", "svg", "torus"]),
    "selftest": (["selftest", "--trials", "1"],
                 ["packing", "plmap", "prescribe", "selftest", "torus"]),
}
MODULES = sorted(p.stem for p in (ROOT / "src" / "fpindex").glob("*.py")
                 if p.stem != "__init__")
# what the package must not import: dataclasses pulls in inspect, ast, dis
# and tokenize, which cost every command its start-up time
HEAVY = ("dataclasses", "inspect")
ADDED_HEAVY = ("print(json.dumps(sorted(m for m in set(sys.modules) - before"
               f" if m in {HEAVY!r})))")


def command_code(command: str, tmp_path) -> str:
    """Code that runs one command of LAYERS in-process."""
    argv, _ = LAYERS[command]
    if argv[0] == "render":
        argv = [*argv, "--svg", str(tmp_path / "out.svg")]
    argv = [*argv, "--out", str(tmp_path / "report.json")]
    return f"""
from fpindex import cli
assert cli.main({argv!r}) == 0
"""


class TestImportBudget:
    def test_jordan_alone(self):
        assert fresh("import json, sys, fpindex.jordan\n" + LOADED) == \
            ["errors", "exact_geom", "jordan"]

    @pytest.mark.parametrize("command", sorted(LAYERS))
    def test_each_command_loads_only_its_layers(self, command, tmp_path):
        assert fresh("import json, sys" + command_code(command, tmp_path)
                     + LOADED) == sorted(CORE + LAYERS[command][1])

    @pytest.mark.parametrize("command", sorted(LAYERS))
    def test_no_command_imports_dataclasses_or_inspect(self, command,
                                                       tmp_path):
        assert fresh("import json, sys\nbefore = set(sys.modules)"
                     + command_code(command, tmp_path) + ADDED_HEAVY) == []

    @pytest.mark.parametrize("module", MODULES)
    def test_no_module_imports_dataclasses_or_inspect(self, module):
        assert fresh(f"""import json, sys
before = set(sys.modules)
import fpindex.{module}
""" + ADDED_HEAVY) == []


# Definitions that nothing else in the package uses and that stay, each with
# its reason. Code that only tests or scripts call lives in tests/.
KEPT = {
    "cli._Parser.error": "argparse calls it: it overrides the hook that "
                         "reports an argument error",
    "exact_geom.PLLoop.segments": "the benchmark's per-call metrics time the "
                                  "Fraction segments until the benchmark "
                                  "revision measures the row kernels",
    "exact_geom.RatPoint.dot": "the benchmark's generator uses it until "
                               "the benchmark revision",
}


def unused_definitions(package: Path, exported, kept) -> list[str]:
    """Top-level functions, classes and plain-name assignments, and methods,
    of the package's modules that no other package code names, outside
    `exported` and dunders.

    A method counts as used where some attribute access names it, anything
    else where a name or an attribute does, outside the definition itself
    and outside every unused definition not in `kept`; the search repeats
    until no new one turns up, so code that only such code calls is unused
    too.
    """
    defs, uses = [], {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node.name, node,
                             False))
            if isinstance(node, ast.Assign):
                defs += [(f"{path.stem}.{target.id}", target.id, node, False)
                         for target in node.targets
                         if isinstance(target, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{item.name}", item.name,
                          item, True)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                name = node.attr if isinstance(node, ast.Attribute) else node.id
                uses.setdefault(name, []).append(
                    (isinstance(node, ast.Attribute), path.stem, node.lineno))
    spans = {qual: (qual.split(".")[0], node.lineno, node.end_lineno)
             for qual, _, node, _ in defs}
    defs = [(qual, name, method) for qual, name, _, method in defs
            if not (name.startswith("__") and name.endswith("__"))
            and (method or name not in exported)]

    def inside(where: str, line: int, quals) -> bool:
        return any(where == spans[q][0] and spans[q][1] <= line <= spans[q][2]
                   for q in quals)

    unused: set[str] = set()
    while True:
        dead = unused - set(kept)
        found = {qual for qual, name, method in defs if not any(
            (attr or not method) and not inside(where, line, [qual, *dead])
            for attr, where, line in uses.get(name, ()))}
        if found <= unused:
            return sorted(unused)
        unused |= found


# Method names that two package classes define, each with its reason.
# `unused_definitions` counts a method as used wherever an attribute names
# it, so a method that shares its name with another class's method is never
# found unused.
SHARED_METHOD_NAMES: dict[str, str] = {}


def shared_method_names(package: Path) -> dict[str, list[str]]:
    """The method names, dunders aside, that more than one class of the
    package's modules defines, each with those classes."""
    owners: dict[str, list[str]] = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for name in {item.name for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not (item.name.startswith("__")
                                  and item.name.endswith("__"))}:
                owners.setdefault(name, []).append(f"{path.stem}.{node.name}")
    return {name: quals for name, quals in owners.items() if len(quals) > 1}


class TestNoTestOnlyCode:
    def test_no_unlisted_method_name_in_two_classes(self):
        shared = shared_method_names(ROOT / "src" / "fpindex")
        extra = {name: quals for name, quals in shared.items()
                 if name not in SHARED_METHOD_NAMES}
        assert not extra, f"the unused check cannot tell these apart: {extra}"
        stale = [name for name in SHARED_METHOD_NAMES if name not in shared]
        assert not stale, f"only one class defines the listed {stale}"

    def test_every_definition_is_used_exported_or_kept(self):
        exported = set(fresh("import json, fpindex\n"
                             "print(json.dumps(fpindex.__all__))"))
        unused = unused_definitions(ROOT / "src" / "fpindex", exported, KEPT)
        extra = [qual for qual in unused if qual not in KEPT]
        assert not extra, f"no package code uses {extra}"
        stale = [qual for qual in KEPT if qual not in unused]
        assert not stale, f"package code uses the kept {stale}"


# Value types whose written-out `__init__` only sets fields, each with its
# reason. Any other such class takes `value_type`'s shared `__init__`.
FIELD_ONLY_INITS = {
    "exact_geom.RatPoint": "built per vertex, where the shared binding costs "
                           "about twice a written-out one",
    "exact_geom.SegmentMeeting": "the benchmark times segment_intersection "
                                 "per call until the benchmark revision",
    "jordan.Crossing": "keeps its point field in the _point slot, behind a "
                       "property that computes it when first read",
    "packing.OverlayReport": "also sets crossing_sets, a slot that is not a "
                             "field",
}


def field_only_inits(package: Path) -> list[str]:
    """The `@value_type` classes whose `__init__` does nothing but call
    `_set`, after an optional docstring."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "value_type"
                    for d in node.decorator_list)):
                continue
            for item in node.body:
                if not (isinstance(item, ast.FunctionDef)
                        and item.name == "__init__"):
                    continue
                body = item.body
                if ast.get_docstring(item) is not None:
                    body = body[1:]
                if all(isinstance(st, ast.Expr) and isinstance(st.value, ast.Call)
                       and isinstance(st.value.func, ast.Name)
                       and st.value.func.id == "_set" for st in body):
                    found.append(f"{path.stem}.{node.name}")
    return sorted(found)


class TestSharedConstructor:
    def test_only_the_kept_value_types_write_a_field_only_init(self):
        found = field_only_inits(ROOT / "src" / "fpindex")
        extra = [qual for qual in found if qual not in FIELD_ONLY_INITS]
        assert not extra, f"{extra} should take value_type's shared __init__"
        stale = [qual for qual in FIELD_ONLY_INITS if qual not in found]
        assert not stale, f"the kept {stale} no longer write one"


def raw_allocations(package: Path) -> tuple[list[str], int]:
    """Where the package names the allocator that skips `__init__`
    (`exact_geom._new`, or `__new__` itself): "module:line" for each place
    outside `_new`'s definition and `exact_geom.trusted`, and the number of
    places inside `trusted`."""
    outside, inside = [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined, kept = set(), set()
        for node in tree.body if path.stem == "exact_geom" else ():
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "_new" for t in node.targets):
                defined.add(node.lineno)
            if isinstance(node, ast.FunctionDef) and node.name == "trusted":
                kept.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if (getattr(node, "id", None) == "_new"
                    or getattr(node, "attr", None) == "__new__"
                    or (isinstance(node, ast.alias)
                        and "_new" in (node.name, node.asname))):
                if node.lineno in kept:
                    inside += 1
                elif node.lineno not in defined:
                    outside.append(f"{path.stem}:{node.lineno}")
    return outside, inside


class TestOneTrustedConstructor:
    def test_only_trusted_calls_the_raw_allocator(self):
        outside, inside = raw_allocations(ROOT / "src" / "fpindex")
        assert not outside, f"use exact_geom.trusted, not _new, at {outside}"
        assert inside


def unpassed_defaults(functions: list[Path], callers: list[Path]) -> list[str]:
    """`module.function(parameter)` for each parameter with a default of a
    top-level function in `functions` that no call in `callers` passes, by
    keyword or by position. Calls are matched by the callee's name alone.

    A function named anywhere but as a call's callee, or called with `*` or
    `**`, counts as passing every parameter: where it is handed on as a
    value, its calls cannot be read.
    """
    passed: dict[str, set] = {}
    anything = set()
    for path in callers:
        tree = ast.parse(path.read_text())
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                             None)
            if name is None:
                continue
            callees.add(node.func)
            if (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                anything.add(name)
            passed.setdefault(name, set()).update(
                [*range(len(node.args)), *[kw.arg for kw in node.keywords]])
        anything.update(getattr(node, "id", None) or node.attr
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Name, ast.Attribute))
                        and node not in callees)
    missing = []
    for path in functions:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name in anything:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, p.arg) for i, p in enumerate(positional)
                         if i >= first]
            defaulted += [(None, p.arg) for p, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            got = passed.get(node.name, set())
            missing += [f"{path.stem}.{node.name}({arg})"
                        for i, arg in defaulted if i not in got and arg not in got]
    return missing


class TestEveryDefaultIsPassed:
    def test_some_call_passes_every_defaulted_parameter(self):
        functions = sorted([*(ROOT / "src" / "fpindex").glob("*.py"),
                            *(ROOT / "tests").glob("*.py")])
        callers = sorted(path for folder in ("src", "tests", "scripts",
                                             "perfbench")
                         for path in (ROOT / folder).rglob("*.py"))
        missing = unpassed_defaults(functions, callers)
        assert not missing, f"no call passes {missing}: make them constants"
