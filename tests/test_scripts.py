"""The example scripts run end to end from a fresh directory, and read their number flags
in the package's grammar."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_moving_square_demo(tmp_path):
    proc = run_script("moving_square_demo.py", "--out-dir", "out", "--size", "64",
                      "--square", "16", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == ["events.evt1", "frame_a.ppm", "frame_b.ppm", "mask.txt", "masked.ppm"]


def test_cost_table(tmp_path):
    proc = run_script("cost_table.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "qwen2vl_2b_like" in proc.stdout


def test_bench_pairs_smoke(tmp_path):
    proc = run_script("bench_pairs.py", str(REPO), str(REPO), "--workload", "simulate_mask",
                      "--pairs", "1", "--smoke", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("pair 0 seed 0 ") for line in lines) == 2
    table = {line.split()[0]: line for line in lines[lines.index("") + 3:]}
    assert set(table) == {"frames_per_s", "frame_p50_s", "frame_tail_s", "setup_s",
                          "peak_rss_mib", "ok_frac"}
    assert table["ok_frac"].split()[2] == "1"
    assert lines[lines.index("") + 2].split()[-2:] == ["gain", "held"]
    assert table["ok_frac"].split()[-1] == "ok"
    assert {line.split()[-1] for line in table.values()} <= {"ok", "worse", "unresolved"}


def bench_pairs():
    path = REPO / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("base, change, better, verdict", [
    # lower is better, bound 0.25 of a base median of 1.0
    ([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], "lower", "ok"),
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "lower", "worse"),
    ([1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5], "lower", "ok"),
    # a spread of 0.4 (quartiles 0.8 and 1.2) cannot show a 0.25 move ...
    ([1.0, 1.0, 1.0, 1.0, 1.0], [0.7, 0.8, 1.0, 1.2, 1.3], "lower", "unresolved"),
    # ... unless every change run beats every base run
    ([2.0, 2.0, 2.0, 2.0, 2.0], [0.5, 0.9, 1.2, 1.5, 1.9], "lower", "ok"),
    ([2.0, 2.0, 2.0, 2.0, 2.0], [0.5, 0.9, 1.2, 1.5, 2.0], "lower", "unresolved"),
    # higher is better, against a base median of 10
    ([10.0, 10.0, 10.0], [8.0, 8.0, 8.0], "higher", "ok"),
    ([10.0, 10.0, 10.0], [7.0, 7.0, 7.0], "higher", "worse"),
    ([9.0, 10.0, 11.0], [6.0, 10.0, 14.0], "higher", "unresolved"),
    ([1.0, 2.0, 3.0], [4.0, 9.0, 14.0], "higher", "ok"),
    # a zero base median allows no move at all
    ([0.0, 0.0], [0.0, 0.0], "lower", "ok"),
    ([0.0, 0.0], [0.1, 0.1], "lower", "worse"),
    # one pair: no spread
    ([1.0], [1.1], "lower", "ok"),
])
def test_held_verdict(base, change, better, verdict):
    assert bench_pairs().held(base, change, better, 0.25) == verdict


@pytest.mark.parametrize("name, flag", [
    ("cost_table.py", ["--text-tokens", "5_9"]),
    ("cost_table.py", ["--dropped", "0_5"]),
    ("moving_square_demo.py", ["--size", "٦٤"]),
    ("moving_square_demo.py", ["--contrast", "0_3"]),
    # An unknown workload, so that a run that takes the flag fails at once.
    ("bench_pairs.py", [str(REPO), str(REPO), "--workload", "none", "--pairs", "1_0"]),
])
def test_number_flags_take_the_package_grammar(tmp_path, name, flag):
    proc = run_script(name, *flag, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "invalid" in proc.stderr and proc.stdout == ""


def nodes(paths):
    """(path, node) for every AST node of the Python files ``paths``."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_no_argparse_flag_reads_numbers_with_int_or_float():
    flags, found = 0, []
    for path, node in nodes([*(REPO / "src" / "evprune").rglob("*.py"),
                             *(REPO / "scripts").glob("*.py")]):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            flags += 1
            found += [f"{path.name}:{node.lineno}" for kw in node.keywords
                      if kw.arg == "type" and isinstance(kw.value, ast.Name)
                      and kw.value.id in ("int", "float")]
    assert flags > 20  # the scan sees the CLI's and the scripts' flags
    assert found == []


def test_the_package_reads_no_environment_variable():
    """The package's inputs are its arguments and files; BLAS's thread count
    is asked of the loaded BLAS, not read from its variables."""
    env = {"environ", "environb", "getenv"}
    os_uses, found = 0, []
    for path, node in nodes((REPO / "src" / "evprune").rglob("*.py")):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            os_uses += 1
            found += [f"{path.name}:{node.lineno}"] if node.attr in env else []
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name in env]
    assert os_uses > 5  # the scan sees the package's other uses of os
    assert found == []
