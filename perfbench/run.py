"""Wall-clock benchmark of ``python -m repro train`` (see README.md).

Usage, from the root of the repository::

    python3 perfbench/run.py --workload star-avazu --seed 0 --seconds 45 \\
        --trace 0

One single-threaded driver launches fresh interpreters (``child.py``)
one after another, each doing what ``python -m repro train`` does for
the workload, until ``--seconds`` have passed; it reports each
end-to-end metric over those runs (see ``summarize``).  With
``--trace 1`` it then adds one traced run, the import ledger,
``repro --help`` timings and the kernel spot check, and reports the
per-layer metrics instead.

Every run is checked before its timings count: the CLI output and the
convergence history must equal those of a serial-backend
``repro train --export-json`` run with the same flags, every run's
history digest (certified gaps included) must be the same, and at the
default seed it must equal the digest committed in ``reference.json``.
A run that fails a check or exits non-zero is counted in ``failed`` and
its timings are dropped; if every run failed, their timings are reported
with ``correct: false``.

The last line of standard output is the result object; the line before
it is the full record (host fingerprint, every sample, medians and
quartiles).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Names and units of the metrics printed: ``end_to_end`` with
#: ``--trace 0``, ``per_layer`` with ``--trace 1``.
SPEC = ROOT / "BENCHMARK.json"

#: Fewest untraced runs a measurement makes, however long they take.
MIN_RUNS = 3
#: Longest one child may run before it is killed and counted failed.
CHILD_TIMEOUT_S = 30.0
#: Repeats of the short startup probes (import ledger, ``--help``).
PROBE_REPEATS = 3
#: Share of the runs cut from each end before the timing metrics are
#: averaged (see ``summarize``).
TRIM = 0.1
#: Metrics reported as the median of the runs rather than the trimmed
#: mean: set-up time (repeated once per run) and peak memory.
MEDIAN_METRICS = ("setup_s", "peak_rss_mb")

#: Per-layer metric ``cli.import.<module>_s`` is the cumulative import
#: time of ``<module>`` in ``python -X importtime -c "import repro.cli"``.
LEDGER_PREFIX, LEDGER_SUFFIX = "cli.import.", "_s"


# ----------------------------------------------------------------------
# processes
def _env() -> dict[str, str]:
    # A fixed hash seed keeps dict and set layouts, and so their cost,
    # the same from run to run; the program's output does not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def launch(argv: list[str], timeout: float = CHILD_TIMEOUT_S,
           ) -> tuple[float, float, int, str, str]:
    """Run ``python argv`` to completion from the repository root.

    Returns ``(start, end, returncode, stdout, stderr)`` with
    ``time.monotonic()`` stamps taken just before the process is created
    and just after it has exited.  The child gets its own process group,
    which is killed afterwards, so no worker it spawned outlives it.
    """
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
    end = time.monotonic()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return start, end, proc.returncode, out, err


def child(workload: str, seed: int, mode: str,
          ) -> tuple[float, float, dict | None, str, str]:
    """One ``child.py`` run; the report is ``None`` when it failed."""
    start, end, rc, out, err = launch(
        ["perfbench/child.py", "--workload", workload, "--seed", str(seed),
         "--mode", mode])
    lines = out.rstrip("\n").split("\n")
    if rc != 0 or not lines[-1].startswith("PERFBENCH "):
        return start, end, None, out, f"exit {rc}: {err.strip()[-400:]}"
    report = json.loads(lines[-1][len("PERFBENCH "):])
    cli_out = "\n".join(lines[:-1]) + "\n" if len(lines) > 1 else ""
    return start, end, report, cli_out, err


# ----------------------------------------------------------------------
# correctness
def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def digests(history: dict, gaps: list) -> dict[str, str]:
    """SHA-256 over the exact bits of the convergence history (steps,
    simulated seconds, objective) and of the certified-gap series."""
    return {
        "history": _sha256([history["steps"],
                            [float(x).hex() for x in history["seconds"]],
                            [float(x).hex() for x in history["objectives"]]]),
        "gaps": _sha256([[g[0], *(float(x).hex() for x in g[1:])]
                         for g in gaps]),
    }


def oracle(workload, seed: int) -> dict:
    """The serial-backend CLI run every measured run must reproduce."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"oracle-{workload.name}-{seed}-{os.getpid()}.json"
    try:
        _, _, rc, out, err = launch(
            ["-m", "repro", *workload.train_argv(seed), "--backend",
             "serial", "--export-json", str(path)])
        if rc != 0:
            raise RuntimeError(f"oracle run exited {rc}: {err[-400:]}")
        exported = json.loads(path.read_text())[0]
    finally:
        path.unlink(missing_ok=True)
    lines = out.rstrip("\n").split("\n")
    if not lines[-1].startswith("wrote "):
        raise RuntimeError("oracle run did not export its history")
    history = {k: exported[k] for k in ("steps", "seconds", "objectives")}
    return {"stdout": "\n".join(lines[:-1]) + "\n", "history": history}


def check(report: dict | None, cli_out: str, expected: dict,
          seen: list[dict], reference: dict | None) -> str | None:
    """Why a run's output is wrong, or ``None`` when it is right."""
    if report is None:
        return "run failed"
    if report["rc"] != 0:
        return f"repro train exited {report['rc']}"
    if cli_out != expected["stdout"]:
        return "CLI output differs from the serial --export-json run"
    if report["history"] != expected["history"]:
        return "history differs from the serial --export-json run"
    got = digests(report["history"], report["gaps"])
    if reference is not None and got != reference:
        return f"history digests {got} != committed {reference}"
    if seen and got != seen[0]:
        return "history digests differ from this set's first run"
    if not seen:
        seen.append(got)
    if report["target_hit"] is None:
        return "convergence target not reached"
    return None


# ----------------------------------------------------------------------
# measurement
def sample_metrics(start: float, end: float, report: dict) -> dict:
    train_s = report["train_end"] - report["train_start"]
    return {
        "wall_s": end - start,
        "setup_s": report["setup_end"] - start,
        "train_s": train_s,
        "time_to_target_s": report["target_hit"] - start,
        "examples_per_s": report["examples"] / train_s,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def measure(workload, seed: int, deadline: float, expected: dict,
            reference: dict | None) -> dict:
    """Untraced runs, one after another, until ``deadline`` (a
    ``time.monotonic()`` reading)."""
    samples, rejected, errors, seen = [], [], [], []
    began = time.monotonic()
    while True:
        start, end, report, cli_out, err = child(workload.name, seed, "run")
        problem = check(report, cli_out, expected, seen, reference)
        if problem is None:
            samples.append(sample_metrics(start, end, report))
        else:
            errors.append(f"{problem}; {err.strip()[-300:]}")
            if report is not None and report["target_hit"] is not None:
                rejected.append(sample_metrics(start, end, report))
        attempted = len(samples) + len(errors)
        now = time.monotonic()
        per_run = (now - began) / attempted
        if attempted >= MIN_RUNS and now + per_run > deadline:
            break
    return {"samples": samples, "rejected": rejected, "errors": errors,
            "digests": seen}


def import_ledger(modules: list[str]) -> dict[str, float]:
    """Median cumulative import seconds per module of ``repro.cli``."""
    runs: dict[str, list[float]] = {m: [] for m in modules}
    for _ in range(PROBE_REPEATS):
        _, _, rc, _, err = launch(["-X", "importtime", "-c",
                                   "import repro.cli"])
        if rc != 0:
            raise RuntimeError(f"import repro.cli failed: {err[-400:]}")
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") \
                    and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for module in modules:
            runs[module].append(seen.get(module, 0.0))
    return {f"{LEDGER_PREFIX}{m}{LEDGER_SUFFIX}": statistics.median(v)
            for m, v in runs.items()}


def help_seconds() -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start, end, rc, _, err = launch(["-m", "repro", "--help"])
        if rc != 0:
            raise RuntimeError(f"repro --help failed: {err[-400:]}")
        times.append(end - start)
    return statistics.median(times)


def traced(workload, seed: int, expected: dict, measured: dict,
           reference: dict | None, ledger_modules: list[str],
           ) -> tuple[dict, dict, list[str]]:
    """The traced run, the startup probes and the kernel spot check."""
    errors = []
    start, end, report, cli_out, err = child(workload.name, seed, "trace")
    problem = check(report, cli_out, expected, measured["digests"],
                    reference)
    if problem is not None:
        raise RuntimeError(f"traced run: {problem}; {err.strip()[-300:]}")
    layers = dict(report["layers"])
    walls = [s["wall_s"] for s in measured["samples"]]
    layers["trace.overhead_s"] = (end - start) - statistics.median(walls)
    layers["cli.help_s"] = help_seconds()
    layers.update(import_ledger(ledger_modules))
    for unit in ("chunk", "coord"):
        layers[f"glm.spot.us_per_{unit}"] = 0.0
        layers[f"glm.spot.us_per_{unit}_ref"] = 0.0
    spot = None
    if workload.kernel is not None:
        _, _, spot, _, err = child(workload.name, seed, "spot")
        if spot is None:
            raise RuntimeError(f"kernel spot check failed: {err}")
        if not spot["identical"]:
            errors.append(f"{workload.kernel}: fast and reference kernels "
                          "differ in output or RNG end state")
        layers[f"glm.spot.us_per_{spot['unit']}"] = spot["us_fast"]
        layers[f"glm.spot.us_per_{spot['unit']}_ref"] = spot["us_reference"]
    return layers, {"train_shares": report["train_shares"],
                    "spot": spot}, errors


# ----------------------------------------------------------------------
# record
def fingerprint() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def trimmed_mean(values: list[float], share: float = TRIM) -> float:
    """Mean of ``values`` without the ``share`` lowest and highest."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def summarize(samples: list[dict]) -> dict[str, float]:
    """One value per end-to-end metric from a set's runs.

    A shared host's speed can drift by about 20 % in phases of tens of
    seconds (README.md, "Noise"), so a set's runs often fall into a fast
    group and a slow group.  The
    median then jumps from one group to the other as their shares pass
    one half, while a mean moves with the shares; the timing metrics are
    therefore the mean of the runs with the fastest and slowest tenth
    cut off, which keeps a single stalled run from moving them.
    ``MEDIAN_METRICS`` stay medians.
    """
    return {k: (statistics.median if k in MEDIAN_METRICS else trimmed_mean)(
                [s[k] for s in samples])
            for k in samples[0]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def run(args) -> int:
    if not (SRC / "repro" / "cli.py").is_file():
        raise RuntimeError(f"no repro package under {SRC}")
    workload = WORKLOADS[args.workload]
    spec = json.loads(SPEC.read_text())
    host = fingerprint()
    host["loadavg_before"] = os.getloadavg()
    began = time.monotonic()
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[workload.name]
    expected = oracle(workload, args.seed)
    errors = []
    got = digests(expected["history"], [])["history"]
    if reference is not None and got != reference["history"]:
        errors.append("serial --export-json history digest differs from "
                      "the committed reference")
    # A traced set spends the second half of its time on the traced run
    # and the startup and kernel probes.
    budget = args.seconds / 2 if args.trace else args.seconds
    measured = measure(workload, args.seed, began + budget, expected,
                       reference)
    errors += measured["errors"]
    attempted = len(measured["samples"]) + len(measured["errors"])
    failed = len(measured["errors"])
    # When every run failed its checks, report the timings of the wrong
    # runs (the result says correct: false) rather than no result.
    samples = measured["samples"] or measured["rejected"]
    if not samples:
        print("\n".join(errors), file=sys.stderr)
        return 1
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "errors": errors,
        "digests": measured["digests"][0] if measured["digests"] else None,
        "samples": samples,
        "medians": {k: statistics.median(s[k] for s in samples)
                    for k in samples[0]},
        "quartiles": {k: quartiles([s[k] for s in samples])
                      for k in samples[0]},
    }
    if args.trace:
        attempted += 1
        names = spec["per_layer"]
        ledger = [m["name"][len(LEDGER_PREFIX):-len(LEDGER_SUFFIX)]
                  for m in names if m["name"].startswith(LEDGER_PREFIX)]
        values, detail, trace_errors = traced(
            workload, args.seed, expected, measured, reference, ledger)
        errors += trace_errors
        record.update(detail)
    else:
        values = summarize(samples)
        values["success_rate"] = (attempted - failed) / attempted
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    host["loadavg_after"] = os.getloadavg()
    record.update(attempted=attempted, failed=failed)
    print(json.dumps(record))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_reference() -> int:
    """Rewrite ``reference.json`` from serial CLI runs at the default
    seed (run only after a change meant to alter the numerics)."""
    committed = {}
    for workload in WORKLOADS.values():
        start, end, report, _, err = child(workload.name, DEFAULT_SEED,
                                           "run")
        if report is None:
            raise RuntimeError(err)
        committed[workload.name] = digests(report["history"],
                                           report["gaps"])
    REFERENCE.write_text(json.dumps(committed, indent=2) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args()
    try:
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
