"""The package surface: what dispatchlab exports, and that the test oracles stay out of it."""

import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dispatchlab
import oracles
from dispatchlab import cli


def top_level_names(path) -> set[str]:
    """Functions, classes and variables a module defines at its top level."""
    names = set()
    for node in ast.parse(Path(path).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_surface_holds_no_oracle():
    for name in dispatchlab.__all__:
        assert hasattr(dispatchlab, name), name
    oracle_names = top_level_names(oracles.__file__)
    assert oracle_names >= {"build_transition_from_policy", "dispatch", "move",
                            "TripRecord", "parse_trips_rows", "make_fixture_rows",
                            # the scalar serving rule and the one-run, one-round loops
                            "serving_location", "greedy_candidates", "can_serve",
                            "EpisodeStep", "discounted_return", "_iid_round_tables",
                            "_run_single_iid", "_run_single_replay", "simulate_policy_episode",
                            # the scalar elimination solve and the row-block mixing loop
                            "gth_solve_scalar", "mixing_curve_loop", "matrix_gap_series",
                            # the row-by-row model reader
                            "request_model_from_csv_rows",
                            # state ranks one at a time and in batch, used only by tests
                            "ranks", "unrank"}
    assert not oracle_names & set(dispatchlab.__all__)
    # one implementation per layer: no oracle is forked back into the package
    for path in sorted(Path(dispatchlab.__file__).parent.glob("*.py")):
        assert not oracle_names & top_level_names(path), path.name


def test_only_csvblocks_reads_csv():
    """One table reader: no module but csvblocks calls csv.reader or csv.DictReader."""
    callers = set()
    for path in sorted(Path(dispatchlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            reads = (isinstance(node, ast.Attribute) and node.attr in ("reader", "DictReader")
                     and getattr(node.value, "id", None) == "csv")
            if reads or (isinstance(node, ast.ImportFrom) and node.module == "csv"):
                callers.add(path.name)
    assert callers == {"csvblocks.py"}


def test_only_csvblocks_imports_csv():
    """One table writer too: no module but csvblocks imports csv, so none can build a csv.writer."""
    importers = set()
    for path in sorted(Path(dispatchlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
                importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                importers.add(path.name)
    assert importers == {"csvblocks.py"}


def test_only_grid_walks_neighbours():
    """One neighbor table: no module but grid calls the per-cell neighbor queries; the others read Grid.scan_table."""
    queries = {"neighbors", "closed_neighborhood", "neighbor_toward"}
    callers = set()
    for path in sorted(Path(dispatchlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in queries:
                callers.add(path.name)
    assert callers <= {"grid.py"}


def test_cli_handlers_leave_the_output_protocol_to_the_runner():
    """Each cmd_* computes a Run from its options; only write_run makes --out and writes report and manifest."""
    tree = ast.parse(Path(cli.__file__).read_text())
    protocol = {"finish_run", "write_report", "make_outdir"}
    callers: dict[str, set] = {name: set() for name in protocol}
    for node in tree.body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in protocol:
                    callers[name].add(getattr(node, "name", "<module>"))
    assert callers == {name: {"write_run"} for name in protocol}
    handlers = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("cmd_")]
    assert len(handlers) == 8
    for handler in handlers:
        args = handler.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        assert params == ["options"] and args.vararg is None and args.kwarg is None, handler.name


@pytest.mark.parametrize("prefix", [
    "scipy",  # fixture, ingest and simulate never need it; the chain layer imports scipy.sparse on first use
    "scipy.sparse.csgraph",  # loads scipy's linear algebra, so only the structure checks import it, on first use
    "concurrent.futures",  # only the mixing sweep uses its thread pool, and imports it on first use
])
def test_cli_import_leaves_out(prefix):
    env = dict(os.environ, PYTHONPATH=str(Path(dispatchlab.__file__).parents[1]))
    code = f"import sys, dispatchlab.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_top_level_name_is_used():
    """No dead name: each one a module defines is read, imported or named somewhere in src/ or tests/.

    A use is a name read, an attribute, an imported name or a string that is exactly the name (as
    ``mock.patch.object`` takes it); the definition itself is no use of it.
    """
    package = Path(dispatchlab.__file__).parent
    used = set()
    for path in [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
    dead = {path.name: sorted(name for name in top_level_names(path) - used if not name.startswith("__"))
            for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in dead.items() if names} == {}


def test_no_function_asks_for_what_its_kernel_knows():
    """A kernel carries its space, model and policy: no function takes ``tm`` beside one of them or their sizes."""
    known = {"space", "model", "policy", "grid", "n", "m", "c"}
    askers = []
    for path in sorted(Path(dispatchlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if "tm" in params and params & known:
                    askers.append(f"{path.name}:{getattr(node, 'name', '<lambda>')}")
    assert askers == []


def test_readme_quick_start_prints_the_limit():
    """README's first library quick-start block runs as written and prints the 2x2 nadap limit, 0.4."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert abs(float(out.getvalue()) - 0.4) <= 1e-12
