"""Benchmark of atomwall: three workloads, end-to-end metrics, traced layer metrics.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep_plasma --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client drives the CLI in-process as a closed loop: it sends the next
operation only after the previous one has finished.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` measures half the time untraced and
half with the layer wrappers of ``tracer.py`` installed, and reports
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times in the result line are taken at a reference host speed: before every
operation and every set-up pass a fixed probe (Python and numpy work on the
CLI's worker count) is timed, and each time is scaled by the probe's
reference time over its median in the run.  The raw figures are in the
``record`` line.

Inputs, references and outputs live under ``.perfbench_work/`` and run
records under ``.perfbench_out/``, both in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep_plasma", "sweep_ideal_static", "table_tabulated")
SETUP_PASSES = 3      # set-up is repeated, at least this often and for
SETUP_SECONDS = 2.0   # at least this long, and its median reported
SETUP_PROBES = 3      # host probes before each set-up pass
IMPORT_PROBES = 3     # fresh `-X importtime` processes per traced run
# Median probe times on a 2-core x86-64 VM (Python 3.11, numpy 2.4); the
# reported times are what that host would have measured.
PROBE_REF_WALL_MS = 5.0
PROBE_REF_CPU_MS = 5.6

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "fe_evals_per_s": "1/s",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import.atomwall_ms": "ms",
    "import.scipy_ms": "ms",
    "dataio.parse_run_config.ms": "ms",
    "cli.main.ms": "ms",
    "cli.self_ms": "ms",
    "lifshitz.free_energy.calls": "count",
    "lifshitz.free_energy.self_ms": "ms",
    "lifshitz.terms_used": "count",
    "lifshitz.quad_block.calls": "count",
    "lifshitz.quad_block.rows": "count",
    "lifshitz.quad_block.self_ms": "ms",
    "lifshitz.max_quad_nodes": "count",
    "lifshitz.integrand.evals": "count",
    "lifshitz.integrand.ms": "ms",
    "lifshitz.rows_useful_ratio": "1",
    "dielectric.eps_iw.points": "count",
    "dielectric.eps_iw.self_ms": "ms",
    "dielectric.kk_transform.calls": "count",
    "dielectric.kk_transform.ms": "ms",
    "dielectric.grid_builds": "count",
    "dielectric.grid_build.ms": "ms",
    "polarizability.alpha_iw.points": "count",
    "polarizability.alpha_iw.ms": "ms",
    "quadrature.rule_lookups": "count",
    "quadrature.rule.ms": "ms",
    "quadrature.rule_builds": "count",
    "trace.overhead_ratio": "1",
}


# ---------------------------------------------------------------------------
# Host probe
# ---------------------------------------------------------------------------

_PROBE_X = np.linspace(1.0, 2.0, 4096)


def _probe_chunk(_):
    s = 0.0
    for i in range(5000):
        s += i * 0.5
    for _ in range(5):
        s += float(np.exp(-np.sqrt(_PROBE_X * _PROBE_X + 3.0)) @ _PROBE_X)
    return s


def host_probe():
    """(wall s, cpu s) of fixed work spread over the CLI's thread-pool size."""
    c0, t0 = time.process_time(), time.perf_counter()
    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        list(pool.map(_probe_chunk, range(8)))
    return time.perf_counter() - t0, time.process_time() - c0


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks the operation of one workload, traced or not."""

    def __init__(self):
        self.op = None
        self.tracer = None
        self.op_count = 0
        self.failed = 0
        self.worst = 0.0

    def run(self, op):
        """One operation: (wall s, cpu s, ok)."""
        from atomwall import cli

        import workloads

        self.op_count += 1
        op.out.unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.op = self.op_count
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as err:  # an op that raises counts as failed
            print(f"op {op.command} raised {err!r}", file=sys.stderr)
            rc = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        ok = rc == 0
        if ok:
            try:
                worst = workloads.worst_error(op, workloads.read_output(op))
            except (OSError, ValueError, KeyError, IndexError) as err:
                print(f"op {op.command}: unreadable output: {err}", file=sys.stderr)
                worst = float("inf")
            self.worst = max(self.worst, worst)
            ok = worst <= 1.0
        if not ok:
            self.failed += 1
        return wall, cpu, ok

    def measure(self, seconds: float):
        """Closed loop for ``seconds``, a host probe before each op.

        Returns the (wall, cpu, evals) of each op and the (wall, cpu) of
        each probe.
        """
        samples, probes = [], []
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            probes.append(host_probe())
            wall, cpu, _ = self.run(self.op)
            samples.append((wall, cpu, self.op.evals))
        return samples, probes


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_pass(runner: Runner, name: str, seed: int, workdir: Path) -> float:
    """Seeded inputs, references and one warm-up op; seconds."""
    import workloads

    t0 = time.perf_counter()
    workdir.mkdir(parents=True)
    runner.op = workloads.SETUPS[name](workdir, seed)
    runner.run(runner.op)
    return time.perf_counter() - t0


def tail(values):
    """(value, percentile) at the highest percentile with ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(samples, probes, setup_times, setup_probes):
    """(metrics at the reference host speed, raw metrics, record fields)."""
    walls = [s[0] for s in samples]
    tail_s, pct = tail(walls)
    raw = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1e3 * statistics.median(walls),
        "op_tail_ms": 1e3 * tail_s,
        "fe_evals_per_s": sum(s[2] for s in samples) / sum(walls),
        "cpu_ms_per_op": 1e3 * statistics.median(s[1] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probe_wall_ms = 1e3 * statistics.median(p[0] for p in probes)
    probe_cpu_ms = 1e3 * statistics.median(p[1] for p in probes)
    setup_probe_ms = 1e3 * statistics.median(p[0] for p in setup_probes)
    speed = PROBE_REF_WALL_MS / probe_wall_ms
    metrics = {
        "setup_s": raw["setup_s"] * PROBE_REF_WALL_MS / setup_probe_ms,
        "op_p50_ms": raw["op_p50_ms"] * speed,
        "op_tail_ms": raw["op_tail_ms"] * speed,
        "fe_evals_per_s": raw["fe_evals_per_s"] / speed,
        "cpu_ms_per_op": raw["cpu_ms_per_op"] * PROBE_REF_CPU_MS / probe_cpu_ms,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    info = {"tail_percentile": pct, "samples": len(walls),
            "probe_wall_ms": probe_wall_ms, "probe_cpu_ms": probe_cpu_ms,
            "setup_probe_wall_ms": setup_probe_ms,
            "op_wall_ms": [round(1e3 * w, 3) for w in walls]}
    return metrics, raw, info


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def parse_importtime(text: str):
    """Cumulative import time in ms of ``atomwall`` and of all of scipy."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    atomwall_us = scipy_us = 0
    stack = []  # ancestors, walking the post-order listing backwards
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s[1] for s in stack):
            scipy_us += cumulative
        if name == "atomwall":
            atomwall_us += cumulative
        stack.append((depth, is_scipy))
    return atomwall_us / 1e3, scipy_us / 1e3


def import_times():
    """Median cumulative import times (ms) of atomwall and scipy in fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    atomwall_ms, scipy_ms = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import atomwall"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        a, s = parse_importtime(proc.stderr) if proc.returncode == 0 else (0.0, 0.0)
        atomwall_ms.append(a)
        scipy_ms.append(s)
    return statistics.median(atomwall_ms), statistics.median(scipy_ms)


def per_layer(spans, n_ops, rule_builds, imports, overhead):
    from tracer import layer_totals

    totals = layer_totals(spans)

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def per_op(layer, key):
        return get(layer, key) / n_ops

    rows = get("lifshitz.quad_block", "work")
    return {
        "import.atomwall_ms": imports[0],
        "import.scipy_ms": imports[1],
        "dataio.parse_run_config.ms": per_op("dataio.parse_run_config", "ms"),
        "cli.main.ms": per_op("cli.main", "ms"),
        "cli.self_ms": per_op("cli.main", "self_ms"),
        "lifshitz.free_energy.calls": per_op("lifshitz.free_energy", "calls"),
        "lifshitz.free_energy.self_ms": per_op("lifshitz.free_energy", "self_ms"),
        "lifshitz.terms_used": per_op("lifshitz.free_energy", "work"),
        "lifshitz.quad_block.calls": per_op("lifshitz.quad_block", "calls"),
        "lifshitz.quad_block.rows": per_op("lifshitz.quad_block", "work"),
        "lifshitz.quad_block.self_ms": per_op("lifshitz.quad_block", "self_ms"),
        "lifshitz.max_quad_nodes": get("lifshitz.free_energy", "work_max"),
        "lifshitz.integrand.evals": per_op("lifshitz.integrand", "work"),
        "lifshitz.integrand.ms": per_op("lifshitz.integrand", "ms"),
        "lifshitz.rows_useful_ratio":
            get("lifshitz.free_energy", "quad_terms") / rows if rows else 0.0,
        "dielectric.eps_iw.points": per_op("dielectric.eps_iw", "work"),
        "dielectric.eps_iw.self_ms": per_op("dielectric.eps_iw", "self_ms"),
        "dielectric.kk_transform.calls": per_op("dielectric.kk_transform", "calls"),
        "dielectric.kk_transform.ms": per_op("dielectric.kk_transform", "ms"),
        "dielectric.grid_builds": per_op("dielectric.grid_build", "calls"),
        "dielectric.grid_build.ms": per_op("dielectric.grid_build", "ms"),
        "polarizability.alpha_iw.points": per_op("polarizability.alpha_iw", "work"),
        "polarizability.alpha_iw.ms": per_op("polarizability.alpha_iw", "ms"),
        "quadrature.rule_lookups": per_op("quadrature.rule", "calls"),
        "quadrature.rule.ms": per_op("quadrature.rule", "ms"),
        "quadrature.rule_builds": rule_builds / n_ops,
        "trace.overhead_ratio": overhead,
    }


def traced_run(runner, seconds: float):
    """Half the time untraced, half traced; per-layer metrics and the overhead."""
    from tracer import Tracer, rule_builds

    untraced, untraced_probes = runner.measure(seconds / 2)
    tracer = Tracer()
    builds_before = rule_builds()
    tracer.install()
    runner.tracer = tracer
    first_op = runner.op_count + 1
    try:
        traced, traced_probes = runner.measure(seconds / 2)
    finally:
        tracer.uninstall()
        runner.tracer = None
    absent = list(tracer.absent)
    after = rule_builds()
    builds = after - builds_before if after is not None else 0
    if after is None:
        absent.append("atomwall.quadrature rule caches")
    # each half's median op time over its median probe time, so that a host
    # speed change between the halves does not read as tracing overhead
    overhead = (statistics.median(s[0] for s in traced)
                / statistics.median(p[0] for p in traced_probes)
                * statistics.median(p[0] for p in untraced_probes)
                / statistics.median(s[0] for s in untraced))
    metrics = per_layer(tracer.spans, len(traced), builds, import_times(), overhead)
    info = {"absent_hooks": absent, "traced_ops": len(traced), "first_traced_op": first_op,
            "untraced_ops": len(untraced), "spans": len(tracer.spans)}
    return metrics, info, tracer.spans


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(args):
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
    }


def print_metrics(metrics: dict, units: dict, prefix: str = ""):
    for name, value in metrics.items():
        print(f"{prefix + name:34s} {value:16.6f} {units[name]}")


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    import atomwall

    if Path(atomwall.__file__).resolve().parent != SRC / "atomwall":
        raise RuntimeError(f"imported atomwall from {atomwall.__file__}, not from {SRC}")

    base = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    base.mkdir(parents=True)
    try:
        runner = Runner()
        setup_times, setup_probes = [], []
        while not setup_times or not args.trace and (
                len(setup_times) < SETUP_PASSES or sum(setup_times) < SETUP_SECONDS):
            setup_probes += [host_probe() for _ in range(SETUP_PROBES)]
            setup_times.append(setup_pass(runner, args.workload, args.seed,
                                          base / f"pass{len(setup_times)}"))
        record = run_record(args)
        warmup_failed = runner.failed
        if args.trace:
            metrics, info, spans = traced_run(runner, args.seconds)
            raw = {}
            print_metrics(metrics, PER_LAYER_UNITS)
            units = PER_LAYER_UNITS
        else:
            samples, probes = runner.measure(args.seconds)
            metrics, raw, info = end_to_end(samples, probes, setup_times, setup_probes)
            print_metrics(metrics, END_TO_END_UNITS)
            print_metrics(raw, END_TO_END_UNITS, prefix="raw.")
            units = END_TO_END_UNITS
            spans = []
        attempted = runner.op_count
        record.update(info, attempted=attempted, failed=runner.failed,
                      warmup_failed=warmup_failed, fail_ratio=runner.failed / attempted,
                      worst_error_share_of_bound=runner.worst, setup_times_s=setup_times,
                      metrics=metrics, raw=raw)
        print("record " + json.dumps(record))
        OUT.mkdir(exist_ok=True)
        out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({"record": record, "spans": spans}))
        return {"correct": runner.failed == 0, "attempted": attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(base, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in its own process; metric names are prefixed by workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sub = json.loads(lines[-1])
        result["correct"] &= sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in sub["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "atomwall" / "__init__.py").is_file():
        print(f"error: no atomwall sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
