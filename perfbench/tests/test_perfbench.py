"""Self-tests of the benchmark: tiny runs of every workload, both modes.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_digest(proc: subprocess.CompletedProcess) -> str:
    (line,) = [ln for ln in proc.stdout.splitlines() if ln.strip().startswith("output_sha256")]
    return line.split()[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_runs_emit_every_metric_and_match_traced_output(workload):
    plain, traced = run(ROOT, workload, 0), run(ROOT, workload, 1)
    for proc, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        res = result(proc)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["attempted"] >= 1 and res["failed"] == 0
        assert {m: v["unit"] for m, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    for name in ("item_p99_ms", "failed_frac"):
        assert name in plain.stdout
    assert all(res_value["value"] > 0 for res_value in result(plain)["metrics"].values())
    assert output_digest(plain) == output_digest(traced)


def copy_checkout(dest: Path, with_source: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    ref_path = root / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    reference["table_sweep"]["tiny"]["sha256"] = "0" * 64
    ref_path.write_text(json.dumps(reference))
    proc = run(root, "table_sweep", 0)
    assert proc.returncode == 1
    assert "digest" in proc.stderr
    assert not proc.stdout.strip().endswith("}")


def test_run_without_package_source_fails_without_result(tmp_path):
    root = copy_checkout(tmp_path, with_source=False)
    proc = run(root, "table_sweep", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_normalise_scales_by_the_calibrations_around_a_segment():
    speed = HostSpeed()
    speed.starts, speed.ends, speed.seconds = [0.0, 2.0], [0.1, 2.05], [0.1, 0.05]
    assert speed.normalise(0.5, 1.0) == pytest.approx(REFERENCE_S / 0.075)
    with pytest.raises(ValueError):
        speed.normalise(1.5, 1.0)  # ends after the last calibration began
    # a calibration inside the segment is left out, and each side scaled by its own neighbours
    speed.starts, speed.ends, speed.seconds = [0.0, 1.0, 2.0], [0.1, 1.1, 2.1], [0.1, 0.1, 0.05]
    assert speed.normalise(0.5, 1.0) == pytest.approx(0.5 * REFERENCE_S / 0.1 + 0.4 * REFERENCE_S / 0.075)
    assert speed.normalise(1.5, 0.4) == pytest.approx(0.4 * REFERENCE_S / 0.075)
