import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    # traced benchmark runs wrap dptext's functions by name, so renaming one
    # must fail here and not only under `perfbench/run.py --trace 1`
    code = (
        'import sys; sys.path[:0] = ["perfbench", "src"]; import spans, dptext; '
        "spans.install(spans.Tracer(), dptext)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
