#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the avgsat command line.

Usage, from the repository root:

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-check
    python3 bench/run.py --record

A workload is a list of avgsat commands.  Each command runs in a fresh
interpreter, one at a time, with the library taken from ``src/``.
``--trace 0`` times whole passes over the list until another pass
would end after ``--seconds`` (at least one pass); it reports each
pass's wall and CPU time averaged over the passes, and the median of
the interpreter starts it times before every command.  The run is held
to one CPU, and while every child runs, this process times a
pure-Python reference loop on that CPU at short intervals.  Every
child's times are scaled by how much faster than nominal the loop ran
meanwhile, so that times read in seconds of a host running at the
reference speed.  ``--trace 1`` runs each command once plain and once
under ``tracer.py`` and reports the per-layer metrics.

Every command's CSV is checked: a deterministic command must reproduce
the SHA-256 in ``digests.json``; a seeded command must keep the
seed-independent columns recorded there, report only "pass" or "info"
rows, and repeat its bytes within a run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of the run,
with its provenance, is written under ``bench/out/``.

``--self-check`` runs both modes on a tiny version of every workload
and checks that the metric names match ``BENCHMARK.json``.
``--record`` rewrites ``digests.json`` from the current tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

# Commands are avgsat argument strings; "{seed}" is replaced by --seed.
# "tiny" lists keep n = 1 (or the smallest sizes) so --self-check takes
# seconds while touching the same layers as the full list.
WORKLOADS = {
    "exact": {
        "commands": [
            "sat-oclass --n 2",
            "property-2-2 --n-list 1,2",
            "moments --n-list 1,2",
            "markov-tail --n 2",
            "property-2-3 --model sat --n-list 1,2",
            "tab-oclass --model enumerated --n-list 1,2 --max-tokens 9",
        ],
        "tiny": [
            "sat-oclass --n 1",
            "property-2-2 --n-list 1",
            "moments --n-list 1",
            "markov-tail --n 1",
            "property-2-3 --model sat --n-list 1",
            "tab-oclass --model enumerated --n-list 1 --max-tokens 5",
        ],
    },
    "series": {
        "commands": [
            "counting --n-max 10 --enum-limit 3",
            "tractability --case harmonic",
        ],
        "tiny": [
            "counting --n-max 4 --enum-limit 2",
            "tractability --case harmonic --budget 2000",
        ],
    },
    "sampling": {
        "commands": [
            "montecarlo --n 2 --max-tokens 8 --samples 100000 --exact-check --seed {seed}",
            "explore-min --target-tokens 9 --samples 10000 --seed {seed}",
        ],
        "tiny": [
            "montecarlo --n 1 --max-tokens 6 --samples 2000 --exact-check --seed {seed}",
            "explore-min --target-tokens 7 --samples 500 --seed {seed}",
        ],
    },
}

MIN_STARTS = 9
# While a child runs, the reference loop is timed once every
# SAMPLE_INTERVAL_S.  LOOP_UNIT_S, the nominal time of one unit, is about
# that of an undisturbed Xeon (Sapphire Rapids) vCPU under CPython 3.11.
# A slow spell on a shared 2-vCPU VM slows the loop more than the
# commands: over 30 runs, each of the ten commands' times went as the
# loop's speed to a power of 0.74-0.90 (fitted on logs), and so the
# scale is raised to SCALE_POWER.
SAMPLE_INTERVAL_S = 0.05
LOOP_UNIT_S = 0.0032
SCALE_POWER = 0.85
COMMAND_TIMEOUT_S = 120
OK_STATUSES = {"pass", "info"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference data)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _loop_unit() -> None:
    """One unit of the reference loop: dict, integer and Fraction work,
    the kinds of work avgsat does."""
    acc, seen = 0, {}
    for i in range(12000):
        key = (i * 2654435761) & 1023
        seen[key] = seen.get(key, 0) + i
        acc ^= key << (i & 7)
    sum((Fraction(1, k) for k in range(1, 120)), Fraction(acc & 1))


def timed_unit() -> float:
    """CPU time of one unit of the reference loop in this thread, which
    excludes any time the thread waits for the CPU."""
    began = time.thread_time()
    _loop_unit()
    return time.thread_time() - began


def run_child(args: list[str], err_path: Path) -> dict:
    """Run one child to completion, sampling the reference loop meanwhile.

    The loop is timed once just before the child starts, and then every
    SAMPLE_INTERVAL_S until it ends.  This process and the child share
    one CPU, so the samples meet the host contention the child meets,
    at the same moments.  ``scale`` is the loop's nominal time over the
    samples' mean, to the power SCALE_POWER.  Wall time is taken here,
    less the time spent on the samples; CPU time and peak RSS come from
    ``os.wait4``.  The child is killed if it outlives COMMAND_TIMEOUT_S
    or if this process is interrupted."""
    samples = [timed_unit()]
    busy = 0.0
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                due = start + SAMPLE_INTERVAL_S
                while not poller.poll(max(0.0, due - time.perf_counter()) * 1000):
                    now = time.perf_counter()
                    if now - start > COMMAND_TIMEOUT_S:
                        proc.kill()
                    samples.append(timed_unit())
                    busy += samples[-1]
                    due = now + SAMPLE_INTERVAL_S
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start - busy
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "exit_code": proc.returncode,
            "scale": (LOOP_UNIT_S / statistics.fmean(samples)) ** SCALE_POWER,
            "samples": len(samples)}


def run_command(index: int, template: str, seed: int, traced: bool = False) -> dict:
    """Run the workload's ``index``-th command once, plain or under the tracer."""
    argv = template.format(seed=seed).split()
    csv_path = OUT / f"cmd{index}{'-traced' if traced else ''}.csv"
    csv_path.unlink(missing_ok=True)
    stats_path = OUT / f"cmd{index}.stats.json"
    if traced:
        stats_path.unlink(missing_ok=True)
        args = [sys.executable, str(BENCH / "tracer.py"), "--stats", str(stats_path),
                "--", *argv, "--out", str(csv_path)]
    else:
        args = [sys.executable, "-m", "avgsat", *argv, "--out", str(csv_path)]
    err_path = OUT / f"cmd{index}.stderr.txt"
    result = run_child(args, err_path)
    result["command"] = template
    if result["exit_code"] != 0:
        result["stderr"] = err_path.read_text(errors="replace")[-500:]
    result["csv"] = csv_path.read_bytes() if csv_path.exists() else None
    if traced and stats_path.exists():
        result["stats"] = json.loads(stats_path.read_text(encoding="utf-8"))
    return result


# --- correctness ------------------------------------------------------


def _rows(csv_bytes: bytes) -> tuple[list[str], list[list[str]]]:
    lines = csv_bytes.decode("utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_command(result: dict, seed: int, reference: dict, first: dict | None) -> str | None:
    """Why the command's run is wrong, or None when it is right.

    ``first`` is the same command's result from the run's first pass,
    which a seeded command must repeat byte for byte."""
    if result["exit_code"] != 0:
        return f"exit code {result['exit_code']}: {result['stderr'].strip()}"
    data = result["csv"]
    if data is None:
        return "no CSV written"
    if "sha256" in reference:
        digest = hashlib.sha256(data).hexdigest()
        return None if digest == reference["sha256"] else f"CSV digest {digest} differs"
    header, rows = _rows(data)
    if header != reference["header"]:
        return "CSV header differs"
    for row in rows:
        fields = dict(zip(header, row))
        if fields.get("status") not in OK_STATUSES:
            return f"row status {fields.get('status')!r}"
        if fields.get("seed") != str(seed):
            return f"seed column {fields.get('seed')!r}"
        for column, value in reference["fixed"].items():
            if fields.get(column) != value:
                return f"column {column} = {fields.get(column)!r}, expected {value!r}"
    if first is not None and data != first["csv"]:
        return "seeded CSV differs between passes"
    return None


def check_passes(passes: list[list[dict]], seed: int, references: dict) -> list[str]:
    """Annotate each result with its failure and return the failures."""
    failures = []
    for p, results in enumerate(passes):
        for i, result in enumerate(results):
            reference = references.get(result["command"])
            if reference is None:
                result["failure"] = "no reference digest recorded"
            else:
                result["failure"] = check_command(result, seed, reference,
                                                  passes[0][i] if p else None)
            if result["failure"]:
                failures.append(f"{result['command']}: {result['failure']}")
    return failures


# --- metrics ----------------------------------------------------------


def start_interpreter() -> dict:
    """A fresh interpreter importing avgsat.cli, timed by run_child."""
    err = OUT / "setup.stderr.txt"
    result = run_child([sys.executable, "-c", "import avgsat.cli"], err)
    if result["exit_code"] != 0:
        raise BenchError("import avgsat.cli failed: " + err.read_text(errors="replace"))
    return result


def hold_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU, so the
    reference loop meets the same host contention as the children.  On
    a shared host each vCPU is slowed on its own: the loop tracks a
    child on its own CPU, and not at all on another one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def timed_passes(commands: list[str], seed: int, seconds: float) -> tuple[list, list]:
    """Whole passes over the commands until one more pass would end after
    ``seconds`` (at least one pass), and the interpreter starts.

    One start is timed before every command, so that the starts sample
    the whole run, and more follow at the end until there are
    MIN_STARTS.  One untimed start and one untimed unit of the loop
    come first, to fill the bytecode cache."""
    start_interpreter()
    _loop_unit()
    passes, starts = [], []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        results = []
        for i, command in enumerate(commands):
            starts.append(start_interpreter())
            results.append(run_command(i, command, seed))
        passes.append(results)
        now = time.perf_counter()
        if now - began + (now - pass_began) > seconds:
            break
    while len(starts) < MIN_STARTS:
        starts.append(start_interpreter())
    return passes, starts


def end_to_end_metrics(passes: list[list[dict]], starts: list[dict]) -> tuple[dict, dict]:
    """The reported metrics and the unscaled times behind them.

    Times: the workload's summed command times averaged over the
    passes, and the median interpreter start, each child's time scaled
    by its own ``scale``.  On a shared 2-vCPU VM the host's speed
    drifts up to 1.7 times over seconds to tens of minutes, and a
    command of many seconds meets both fast and slow periods; a loop
    timed beside it on the same CPU meets the same ones.
    Peak RSS: the largest command median."""
    def mean_pass(key, scaled):
        return statistics.fmean(sum(r[key] * (r["scale"] if scaled else 1) for r in p)
                                for p in passes)

    raw = {"wall_s": mean_pass("wall_s", False), "cpu_s": mean_pass("cpu_s", False),
           "setup_s": statistics.median(r["wall_s"] for r in starts),
           "scale": statistics.fmean(r["scale"] for p in passes for r in p)}
    rss = [statistics.median(p[i]["rss_kb"] for p in passes) for i in range(len(passes[0]))]
    metrics = {
        "wall_s": {"value": mean_pass("wall_s", True), "unit": "s"},
        "cpu_s": {"value": mean_pass("cpu_s", True), "unit": "s"},
        "peak_rss_mb": {"value": max(rss) / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(r["wall_s"] * r["scale"] for r in starts),
                    "unit": "s"},
    }
    return metrics, raw


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a workload from its traced pass, summed over
    commands, and the traced names that no longer exist."""
    layers: dict[str, dict] = {}
    counts: dict[str, int] = {}
    cache = {"hits": 0, "misses": 0, "entries": 0}
    have_cache = False
    absent: set[str] = set()
    draws = accepted = 0
    for result in traced:
        stats = result.get("stats")
        if stats is None:
            continue
        absent.update(stats["absent"])
        for layer, values in stats["layers"].items():
            total = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "work": 0})
            for key in total:
                total[key] += values[key]
        for layer, calls in stats["counts"].items():
            counts[layer] = counts.get(layer, 0) + calls
        if stats["model_cache"] is not None:
            have_cache = True
            cache["hits"] += stats["model_cache"]["hits"]
            cache["misses"] += stats["model_cache"]["misses"]
            cache["entries"] = max(cache["entries"], stats["model_cache"]["entries"])
        command_draws = stats["layers"].get("cli.sample", {}).get("calls", 0)
        if command_draws and result["csv"] is not None:
            header, rows = _rows(result["csv"])
            if "samples" in header:
                draws += command_draws
                accepted += sum(int(row[header.index("samples")]) for row in rows)

    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def layer(name, *fields):
        if name not in layers:
            return
        for field, metric, unit in fields:
            put(f"{name}.{metric}", layers[name][field], unit)

    self_s, calls = ("self_s", "self_s", "s"), ("calls", "calls", "count")
    layer("kernel.census", self_s, calls, ("work", "sequences", "count"))
    layer("kernel.enumerate", self_s, calls, ("work", "sequences", "count"))
    layer("kernel.eval", self_s, calls)
    for name in ("formula.table_hash", "formula.model_set"):
        if name in counts:
            put(f"{name}.calls", counts[name], "count")
    layer("formula.stratify", self_s)
    if have_cache:
        lookups = cache["hits"] + cache["misses"]
        put("formula.model_cache.hit_ratio", cache["hits"] / lookups if lookups else 0.0,
            "ratio")
        put("formula.model_cache.entries", cache["entries"], "count")
    layer("engines", self_s, calls)
    layer("measure.space", self_s, ("work", "items", "count"))
    layer("measure.distribution", self_s)
    layer("measure.bound", self_s)
    layer("measure.tractability", self_s)
    layer("analytic", self_s)
    layer("cli.sample", self_s, calls)
    if "cli.sample" in layers:
        put("cli.sample.accept_ratio", accepted / draws if draws else 0.0, "ratio")
    layer("cli.emit", self_s)
    put("cli.emit.bytes", sum(len(r["csv"] or b"") for r in traced), "bytes")
    if "cli" in layers:
        put("cli.other_s", layers["cli"]["self_s"], "s")
    put("trace.overhead_s",
        sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in plain), "s")
    return metrics, sorted(absent)


# --- provenance and output --------------------------------------------


def provenance(seed: int) -> dict:
    kernel = subprocess.run(
        [sys.executable, "-c", "import avgsat._kernel as k; print(k.ACTIVE)"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, check=False)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = git.stdout.strip() or None
    return {
        "kernel": kernel.stdout.strip() or None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def _commands_record(passes: list[list[dict]]) -> list[dict]:
    keep = ("command", "wall_s", "cpu_s", "rss_kb", "exit_code", "scale", "samples",
            "failure")
    return [{k: r.get(k) for k in keep} for p in passes for r in p]


def run_workload(name: str, commands: list[str], seed: int, seconds: float,
                 trace: bool) -> dict:
    references = load_references()
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "trace": trace, "seconds": seconds,
              "provenance": provenance(seed)}
    hold_to_one_cpu()
    if trace:
        # each traced run follows its plain run at once, so that a busy
        # host moves both sides of trace.overhead_s alike
        plain, traced = [], []
        for i, command in enumerate(commands):
            plain.append(run_command(i, command, seed))
            traced.append(run_command(i, command, seed, traced=True))
        passes = [plain, traced]
        metrics, absent = layer_metrics(plain, traced)
        record["absent"] = absent
        record["spans"] = {r["command"]: r.get("stats", {}).get("spans") for r in traced}
    else:
        passes, starts = timed_passes(commands, seed, seconds)
        metrics, record["unscaled"] = end_to_end_metrics(passes, starts)
    failures = check_passes(passes, seed, references)
    attempted = sum(len(p) for p in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record.update(result, error_rate=len(failures) / attempted, failures=failures,
                  passes=len(passes), commands=_commands_record(passes))
    out_file = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"bench: FAIL {failure}", file=sys.stderr)
    return result


def require_sources() -> None:
    if not (SRC / "avgsat" / "cli.py").exists():
        raise BenchError(f"no avgsat sources under {SRC}")


def load_references() -> dict:
    require_sources()
    if not DIGESTS.exists():
        raise BenchError(f"missing {DIGESTS}")
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


# --- self-check and recording -----------------------------------------


def self_check() -> list[str]:
    """Run both modes on every tiny workload; return what is wrong."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for name, workload in WORKLOADS.items():
        counts = []
        for trace in (0, 1, 1):
            result = run_workload(name, workload["tiny"], seed=7, seconds=0, trace=bool(trace))
            tag = f"{name} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed commands")
            emitted = set(result["metrics"])
            if emitted != expected[trace]:
                problems.append(f"{tag}: missing {sorted(expected[trace] - emitted)}, "
                                f"unlisted {sorted(emitted - expected[trace])}")
            if trace:
                counts.append({k: m["value"] for k, m in result["metrics"].items()
                               if m["unit"] in ("count", "ratio", "bytes")})
            elif any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{tag}: an end-to-end metric is not positive")
        if counts[0] != counts[1]:
            problems.append(f"{name}: traced counts differ between two runs")
    return problems


def record_references() -> dict:
    """Reference data from the current tree: a digest per deterministic
    command (run twice, which must agree), and per seeded command the
    columns on which four seeds agree."""
    OUT.mkdir(parents=True, exist_ok=True)
    references = {}
    commands = [c for w in WORKLOADS.values() for key in ("commands", "tiny") for c in w[key]]
    for command in commands:
        seeded = "{seed}" in command
        runs = [run_command(0, command, seed) for seed in ((1, 2, 3, 4) if seeded else (1, 1))]
        for run in runs:
            if run["exit_code"] != 0:
                raise BenchError(f"{command}: exit code {run['exit_code']}")
        if not seeded:
            if runs[0]["csv"] != runs[1]["csv"]:
                raise BenchError(f"{command}: output differs between two runs")
            references[command] = {"sha256": hashlib.sha256(runs[0]["csv"]).hexdigest()}
            continue
        header = _rows(runs[0]["csv"])[0]
        rows = [_rows(run["csv"])[1] for run in runs]
        if any(len(r) != 1 for r in rows):
            raise BenchError(f"{command}: a seeded command must write one row")
        fixed = {column: rows[0][0][i] for i, column in enumerate(header)
                 if column not in ("seed", "status") and len({r[0][i] for r in rows}) == 1}
        references[command] = {"header": header, "fixed": fixed}
    return references


def main() -> int:
    parser = argparse.ArgumentParser(description="avgsat end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        if args.record:
            require_sources()
            DIGESTS.write_text(json.dumps(record_references(), indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
            print(f"wrote {DIGESTS.relative_to(ROOT)}")
            return 0
        if args.self_check:
            problems = self_check()
            for problem in problems:
                print(f"self-check: {problem}", file=sys.stderr)
            print("self-check " + ("failed" if problems else "ok"))
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, WORKLOADS[args.workload]["commands"],
                              args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
