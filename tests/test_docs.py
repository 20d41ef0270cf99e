"""The README's library tour, its command lines and the demos that run in
seconds work as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

from seqrisk import cli

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path})


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    truth, mean, std_error = (float(x) for x in out.stdout.split())
    assert abs(mean - truth) <= 4 * std_error


def test_readme_model_file_validates(tmp_path):
    readme = (ROOT / "README.md").read_text()
    doc = re.search(r"Model files are JSON:\n\n```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "chain.json"
    path.write_text(doc)
    out = run_python("-m", "seqrisk", "validate", "--model", str(path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_readme_command_lines_parse():
    # a renamed or removed flag fails here; each line's comment is not an argument
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["seqrisk"]]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_estimator_tour_demo_runs():
    out = run_python("demos/01_estimator_tour.py")
    assert out.returncode == 0, out.stderr
    assert "shared-pool estimates" in out.stdout


def test_variance_panels_demo_runs():
    out = run_python("demos/02_variance_panels.py")
    assert out.returncode == 0, out.stderr
    assert "(1/n scaling)" in out.stdout


def test_exact_oracles_demo_runs():
    # the README quotes this number for `seqrisk oracle dispersion`
    out = run_python("demos/03_exact_oracles.py")
    assert out.returncode == 0, out.stderr
    assert "outranks a baseline case only 9.43% of the time" in out.stdout


def test_cohort_demo_runs():
    out = run_python("demos/04_cohort_evaluation.py")
    assert out.returncode == 0, out.stderr
    matched = [line for line in out.stdout.splitlines() if "matches it with" in line]
    assert [line.split(":")[0].strip() for line in matched] == ["scope", "reach"]
