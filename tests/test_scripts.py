"""The example scripts run end to end from a fresh directory, and read their number flags
in the package's grammar."""

import ast
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


def test_no_argparse_flag_reads_numbers_with_int_or_float():
    flags, found = 0, []
    for path in [*(REPO / "src" / "evprune").rglob("*.py"), *(REPO / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                flags += 1
                found += [f"{path.name}:{node.lineno}" for kw in node.keywords
                          if kw.arg == "type" and isinstance(kw.value, ast.Name)
                          and kw.value.id in ("int", "float")]
    assert flags > 20  # the scan sees the CLI's and the scripts' flags
    assert found == []
