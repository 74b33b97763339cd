"""Benchmark of the housingrisk CLI: end-to-end time, memory and set-up time.

    python3 perfbench/run.py --workload paper_panel --seed 11 --seconds 30 --trace 0

Run from the root of a checkout. Each operation is one fresh
``housingrisk <command> --config config.json`` process, started from this
checkout's ``src`` and run by one closed-loop client: the next operation
starts when the previous one has exited and its output has been checked.

With ``--trace 0`` a run generates the workload's inputs from ``--seed``,
makes one untimed warm-up start, then repeats cycles of one ``ingest``
start (``setup_s``) and one workload operation (``wall_s``,
``peak_rss_mb``) while one more cycle fits in ``--seconds`` (and at least
MIN_OPS times). It reports medians. With ``--trace 1`` it alternates
untraced operations and operations run in-process under ``tracing.py`` for
``--seconds``, and reports the per-layer metrics and the tracing overhead.

``--workload all`` interleaves the cycles of every workload in one run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import gen
import probe
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PANEL_ARTIFACTS = ("jump_series.csv", "pair_correlations.csv", "contagion_fits.csv", "integration_series.csv")
# workload -> (command, artifacts the output check reads)
WORKLOADS = {
    "paper_panel": ("all", PANEL_ARTIFACTS),
    "ragged_panel": ("all", PANEL_ARTIFACTS),
    "contagion_menu": ("contagion", ("contagion_fits.csv",)),
}
MIN_OPS = 3  # operations per workload in a timed run, however slow the host
RUN_LIMIT_S = 170.0  # a child still running this long after start is killed
CLI = "import sys; from housingrisk.cli import main; sys.exit(main())"
UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Op:
    """One finished operation."""

    wall_s: float
    rss_mb: float
    error: str | None
    digest: str | None = None


def child_env() -> dict[str, str]:
    """The caller's environment with src on the path and BLAS pinned to one
    thread; HOUSINGRISK_* settings are dropped so they cannot alter a run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HOUSINGRISK_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(argv: list[str], cwd: Path, env: dict, limit_s: float) -> tuple[float, float, int, str]:
    """Run one child; (wall s, peak RSS MB, exit code, stderr text).

    Peak RSS comes from this child's own rusage (``os.wait4``), not from
    RUSAGE_CHILDREN, which is the maximum over every child reaped so far.
    """
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class WorkloadSet:
    """One workload's inputs and every operation run on them."""

    name: str
    seed: int
    work: Path
    deadline: float
    env: dict = field(default_factory=child_env)
    ops: dict = field(default_factory=lambda: {"setup": [], "op": [], "traced": []})
    digests: dict = field(default_factory=dict)

    def __post_init__(self):
        self.command, self.required = WORKLOADS[self.name]
        self.dir = self.work / self.name
        self.inputs = gen.write_inputs(self.name, self.seed, self.dir)
        self.truth = json.loads((self.dir / "truth.json").read_text(encoding="utf-8"))

    def _run(self, command: str, required, prefix: list[str], kind: str) -> Op:
        # A fresh directory under one fixed name: the name enters the
        # resolved config, so it must not vary between operations.
        out = "out"
        shutil.rmtree(self.dir / out, ignore_errors=True)
        argv = prefix + [command, "--config", "config.json", "--out", out]
        limit = max(1.0, self.deadline - time.perf_counter())
        wall, rss, code, stderr = spawn(argv, self.dir, self.env, limit)
        op = Op(wall, rss, None)
        if code != 0:
            op.error = f"exit status {code}: {stderr.strip()[-300:]}"
        elif stderr:
            op.error = f"wrote to stderr: {stderr.strip()[-300:]}"
        else:
            try:
                op.digest = check.check_output(self.dir / out, self.truth, required)
            except (check.CheckError, OSError, ValueError, KeyError) as exc:
                op.error = f"output check: {exc}"
        # Every operation of one command must write the same bytes.
        if op.digest is not None and self.digests.setdefault(command, op.digest) != op.digest:
            op.error = "output digest differs from the first operation of the set"
        shutil.rmtree(self.dir / out, ignore_errors=True)
        if kind:
            self.ops[kind].append(op)
        if op.error:
            print(f"{self.name}: {command} failed: {op.error}", file=sys.stderr)
        return op

    def warm_up(self) -> None:
        """Untimed start: compiles the .pyc files and fills the page cache."""
        self._run("ingest", (), [sys.executable, "-c", CLI], "")

    def setup(self) -> Op:
        return self._run("ingest", (), [sys.executable, "-c", CLI], "setup")

    def operation(self) -> Op:
        return self._run(self.command, self.required, [sys.executable, "-c", CLI], "op")

    def traced(self, spans_path: Path) -> Op:
        prefix = [sys.executable, str(HERE / "tracing.py"), str(spans_path)]
        return self._run(self.command, self.required, prefix, "traced")

    def attempted_failed(self) -> tuple[int, int]:
        ops = [op for kind in self.ops.values() for op in kind]
        return len(ops), sum(op.error is not None for op in ops)

    def metrics(self) -> dict[str, list[float]]:
        return {
            "wall_s": [op.wall_s for op in self.ops["op"]],
            "peak_rss_mb": [op.rss_mb for op in self.ops["op"]],
            "setup_s": [op.wall_s for op in self.ops["setup"]],
        }


def run_timed(sets: list[WorkloadSet], seconds: float) -> list[float]:
    """Interleaved cycles of (ingest start, operation) per workload.

    A cycle starts only if one more, as long as the last, still ends within
    ``seconds``, but every workload gets MIN_OPS operations. Returns the
    machine-speed probe readings taken between operations.
    """
    probes = []
    start = time.perf_counter()
    stop = start + seconds
    cycle_s = 0.0
    while len(sets[0].ops["op"]) < MIN_OPS or time.perf_counter() + cycle_s <= stop:
        began = time.perf_counter()
        for s in sets:
            probes.append(probe.probe_ms())
            s.setup()
            probes.append(probe.probe_ms())
            s.operation()
        cycle_s = time.perf_counter() - began
    return probes


def run_traced(s: WorkloadSet, seconds: float) -> dict[str, float]:
    """Pairs of one untraced and one traced operation while one more pair
    fits in ``seconds`` (at least one pair); the per-layer metrics of the
    last traced operation, and the overhead as the difference of the
    median traced and untraced wall times."""
    spans_path = s.work / f"{s.name}-spans.json"
    stop = time.perf_counter() + seconds
    pair_s = 0.0
    while not s.ops["traced"] or time.perf_counter() + pair_s <= stop:
        began = time.perf_counter()
        s.operation()
        s.traced(spans_path)
        pair_s = time.perf_counter() - began
    if s.attempted_failed()[1]:
        return {}
    metrics = tracing.layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
    traced_s = statistics.median(op.wall_s for op in s.ops["traced"])
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - statistics.median(op.wall_s for op in s.ops["op"])
    return metrics


def _line(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"  {name:<12} median {med:10.4f} {unit:<3} q1 {q1:.4f} q3 {q3:.4f} n={len(values)}"


def report(s: WorkloadSet, probes: list[float]) -> None:
    attempted, failed = s.attempted_failed()
    print(f"{s.name}: housingrisk {s.command}, seed {s.seed}, failed {failed} of {attempted} operations")
    print("  inputs " + " ".join(f"{name}={digest}" for name, digest in s.inputs.items()))
    for name, values in s.metrics().items():
        if values:
            print(_line(name, values, UNITS[name]))
    if probes:
        print(_line("probe_ms", probes, "ms") + "  (machine speed; not gated)")
    for command, digest in s.digests.items():
        print(f"  output {command} sha256={digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "housingrisk" / "cli.py").is_file():
        print(f"run.py: no housingrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        sets = [WorkloadSet(n, args.seed, work, started + RUN_LIMIT_S) for n in names]
        for s in sets:
            s.warm_up()
        metrics = {}
        if args.trace:
            for s in sets:
                layers = run_traced(s, args.seconds / len(sets))
                report(s, [])
                prefix = f"{s.name}." if len(sets) > 1 else ""
                for name, value in layers.items():
                    print(f"  {name} {value}")
                    metrics[prefix + name] = {"value": value, "unit": tracing.unit(name)}
        else:
            probes = run_timed(sets, args.seconds)
            for s in sets:
                report(s, probes)
                prefix = f"{s.name}." if len(sets) > 1 else ""
                for name, values in s.metrics().items():
                    metrics[prefix + name] = {"value": statistics.median(values), "unit": UNITS[name]}
        attempted = sum(s.attempted_failed()[0] for s in sets)
        failed = sum(s.attempted_failed()[1] for s in sets)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
