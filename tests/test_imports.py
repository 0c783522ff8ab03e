"""No command loads numpy, `dataclasses` or `argparse`.

Importing the command line and running every command, `invert`
included, must leave numpy unloaded, since its import costs several
times what the whole closed-form chain and an inversion do.  No package
module imports numpy at all, so every command runs, and prints the same
CSV, where numpy cannot be imported; only the tests need it.  The
records are NamedTuple classes, so nothing loads `dataclasses` or the
`inspect` it imports either.  The command line is read without
`argparse`, which would load `gettext` with it.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pdckit
from pdckit import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(pdckit.__file__).parent

SOURCE = """
center_wavelength = 796 nm
pump_fwhm = 2.5 nm
pm_fwhm = 0.5 nm
tilt = 54.7 deg
length = 2.1 mm
"""
STATE = "p0 = 0.94920\np1 = 0.05065\np2 = 0.00015\n"
FILTERS = "signal_filter_fwhm = 1 nm\nreference_fwhm = 1 nm\n"

# (command, scenario text, extra options) for every command
COMMANDS = [
    ("ellipse", SOURCE, []),
    ("filter", SOURCE + "filter_s_fwhm = 1 nm\nfilter_i_fwhm = 1 nm\n", []),
    (
        "pm-vs-length",
        SOURCE + "length_min = 1 mm\nlength_max = 5 mm\nlength_steps = 5\n",
        [],
    ),
    ("twin-hom", "tilt = 54.7 deg\naspect_min = 1.5\naspect_max = 90\n", []),
    (
        "herald-stats",
        "modes_unfiltered = 31\ntrigger_efficiency = 0.1\n"
        "gain_sq_min = 0.01\ngain_sq_max = 0.05\ngain_sq_steps = 5\n",
        [],
    ),
    ("visibility-curve", None, []),
    ("fit-overlap", STATE, ["--data", "{data}"]),
    (
        "hom-scan",
        STATE + "beta_sq = 0.05\ntmax = 0.7\ndip_sigma = 1 ps\n",
        [],
    ),
    ("hom-scan", SOURCE + FILTERS + STATE + "beta_sq = 0.05\n", []),
    ("tmax", None, []),
    ("dip-width", None, []),
    ("fidelity", "overlap = 0.65\none_photon = 0.93125\n", []),
    ("invert", None, []),
    # a face input, which runs the EM iteration, and a click triple
    (
        "invert",
        "observed = 0.94920, 0.05065, 0.00015\nefficiency = 0.046\n",
        [],
    ),
    (
        "invert",
        "observed = 0.9, 0.08, 0.02\nefficiency = 0.3\n"
        "observable = clicks\n",
        [],
    ),
]
CONFIGS = {
    "visibility-curve": "visibility_three_fold.cfg",
    "tmax": "tmax.cfg",
    "dip-width": "tmax.cfg",
    "invert": "invert_three_fold.cfg",
}

_CHILD = textwrap.dedent(
    """
    import contextlib, io, json, sys


    class BlockNumpy:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "numpy":
                raise ImportError("numpy is blocked")


    calls, block = json.loads(sys.argv[1]), sys.argv[2] == "block"
    if block:
        sys.meta_path.insert(0, BlockNumpy())

    import pdckit.cli

    codes, outputs = [], []
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes.append(pdckit.cli.main(argv))
        outputs.append(out.getvalue())
    heavy = ("numpy", "dataclasses", "inspect", "argparse", "gettext")
    loaded = [name for name in heavy if name in sys.modules]
    try:
        import numpy
        blocked = False
    except ImportError:
        blocked = True
    print(json.dumps([codes, outputs, loaded, blocked == block]))
    """
)


def _run_commands(tmp_path, block=False):
    """Run every command in one child process, numpy importable or not;
    its exit codes, CSV outputs and the heavy modules it loaded."""
    data = tmp_path / "curve.csv"
    data.write_text("beta_sq,visibility\n0.01,0.4\n0.02,0.5\n0.05,0.45\n")
    calls = []
    for index, (command, text, options) in enumerate(COMMANDS):
        if text is None:
            config = ROOT / "configs" / CONFIGS[command]
        else:
            config = tmp_path / f"{index}.cfg"
            config.write_text(text)
        options = [option.format(data=data) for option in options]
        calls.append([command, "--config", str(config), *options])
    assert {call[0] for call in calls} == set(cli._COMMANDS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    mode = "block" if block else "allow"
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(calls), mode],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    codes, outputs, loaded, as_asked = json.loads(child.stdout)
    assert as_asked, f"the child's numpy import did not {mode} as asked"
    assert codes == [0] * len(calls), child.stderr
    return outputs, loaded


def test_no_command_loads_numpy(tmp_path):
    _, loaded = _run_commands(tmp_path)
    assert loaded == [], "a command loaded these"


def test_every_command_runs_without_numpy(tmp_path):
    """With `import numpy` raising ImportError, every command exits 0
    and prints the CSV it prints where numpy is importable."""
    outputs, _ = _run_commands(tmp_path)
    blocked, _ = _run_commands(tmp_path, block=True)
    assert all(outputs)
    assert blocked == outputs


def _imports(node, module: str) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == module for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == module
    return False


def test_no_module_imports_numpy_at_top_level():
    """No module imports numpy, at the top level, inside a function or
    for annotations under TYPE_CHECKING."""
    top_level, anywhere = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if _imports(node, "numpy"):
                top_level.append(path.stem)
        if any(_imports(node, "numpy") for node in ast.walk(tree)):
            anywhere.append(path.stem)
    assert top_level == []
    assert anywhere == []


def test_no_module_imports_dataclasses():
    importing = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if any(
            _imports(node, "dataclasses")
            for node in ast.walk(ast.parse(path.read_text()))
        )
    ]
    assert importing == []
