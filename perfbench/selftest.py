"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Each workload runs one short round untraced and one traced, on a seed no
   baseline uses.  Every end-to-end and per-layer metric must be printed,
   the result line must carry exactly the metrics BENCHMARK.json lists, and
   no operation may fail.
2. Each operation has its output scaled by (1 + 1e-6) and must then count as
   failed.  Where every bound of the output is above 1e-6 (the tabulated
   table, whose bounds include kk.rel_tol) the scale is 1 + 1e-5 instead.
3. The library's kernel is made wrong before set-up, so that references the
   library computes share the defect, and the operation must still fail:
   the per-frequency integrand scaled by (1 + 1e-6) on ``sweep_plasma`` and
   by (1 + 1e-3) on ``table_tabulated`` (whose independent check is only as
   fine as its sampled tables), the ideal-metal integral by (1 + 1e-6) on
   ``sweep_ideal_static``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

HELD_OUT_SEED = 987654
SHORT_SECONDS = "0.1"
DEFECTS = {"sweep_plasma": ("_integrand_rows", 1e-6),
           "sweep_ideal_static": ("ideal_metal_integral", 1e-6),
           "table_tabulated": ("_integrand_rows", 1e-3)}


def check_names(name: str, trace: int, spec: dict):
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
            "--seed", str(HELD_OUT_SEED), "--seconds", SHORT_SECONDS, "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("record ")}
    every = set(run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS)
    if not trace:
        every |= {f"raw.{k}" for k in run.END_TO_END_UNITS}
    assert printed == every, (name, trace, every ^ printed)
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == listed, (name, trace, set(result["metrics"]) ^ listed)
    print(f"ok  {name:20s} trace={trace}  {len(printed)} metrics printed, "
          f"{len(listed)} in the result line")


def scaled(output: dict, factor: float) -> dict:
    """``output`` with every checked value multiplied by ``factor``."""
    return {key: [v * factor for v in values] for key, values in output.items()}


def _set_up(name: str, tag: str):
    import workloads

    workdir = run.WORK / f"selftest-{name}-{tag}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = run.Runner()
    return workdir, runner, workloads.SETUPS[name](workdir, HELD_OUT_SEED)


def check_perturbation(name: str):
    import workloads

    read_output = workloads.read_output
    workdir, runner, op = _set_up(name, "scaled")
    try:
        bound = min(b for _, _, b in op.checks)
        factor = 1.0 + (1e-6 if bound < 1e-6 else 1e-5)
        _, _, ok = runner.run(op)
        assert ok, f"{name}: clean output failed its check"
        workloads.read_output = lambda o: scaled(read_output(o), factor)
        try:
            _, _, ok = runner.run(op)
        finally:
            workloads.read_output = read_output
        assert not ok, f"{name}: output scaled by {factor!r} passed"
        print(f"ok  {name:20s} output scaled by {factor!r} counts as failed "
              f"(smallest bound {bound:.3g})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_kernel_defect(name: str):
    from atomwall import lifshitz

    attr, share = DEFECTS[name]
    original = getattr(lifshitz, attr)
    setattr(lifshitz, attr, lambda *args: original(*args) * (1.0 + share))
    workdir = None
    try:
        workdir, runner, op = _set_up(name, "defect")
        _, _, ok = runner.run(op)
    finally:
        setattr(lifshitz, attr, original)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    assert not ok, f"{name}: lifshitz.{attr} scaled by 1 + {share:g} before set-up passed"
    print(f"ok  {name:20s} lifshitz.{attr} scaled by 1 + {share:g} before set-up "
          "counts as failed")


def main() -> int:
    if not (run.SRC / "atomwall" / "__init__.py").is_file():
        print(f"error: no atomwall sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            check_names(name, trace, spec)
        check_perturbation(name)
        check_kernel_defect(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
