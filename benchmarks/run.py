"""The evotropy benchmark: named workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload paper-default --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seconds 30        # every workload in turn, untraced
    python3 benchmarks/run.py --pin               # re-pin digests.json from the program

Each execution of a workload is the program's own command in a fresh
interpreter, one at a time: `evotropy run` or `evotropy analyze`, taken
from `src/` of the checkout.  Its stdout and every file it writes are
checked against the SHA-256 digests pinned in `digests.json`.  Each
execution is paired with one of the same input, run just before or just
after it: the frozen baseline in `baseline/` when untraced, the traced
program when traced.  A run executes at least one round of the
workload's cases, then stops once `--seconds` have passed.  The last line
of stdout is one JSON object: with `--trace 0` it holds the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run (see
tracer.py).  The full record, stamped with the machine it ran on, goes to
`.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import workloads

clock = time.monotonic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# evotropy as it was when the benchmark was defined; never edited
BASELINE = BENCH_DIR / "baseline"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
TRACER = BENCH_DIR / "tracer.py"
LAUNCHER = BENCH_DIR / "launcher.py"

# a run must end within 180 s; executions still going at this point are killed
DEADLINE_S = 160.0

END_TO_END = {
    "run_vs_baseline": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed and recorded with the end-to-end metrics, but too exposed to the
# machine's speed drift to gate a change on
REPORTED = {
    "run_s": "s",
    "baseline_run_s": "s",
    "traced_run_s": "s",
    "members_per_s": "1/s",
}
PER_LAYER = {
    "evolution.fitness.busy_s": "s",
    "evolution.fitness.calls": "count",
    "evolution.fitness.distinct_sets": "count",
    "evolution.fitness.distinct_share": "ratio",
    "evolution.parsimony.busy_s": "s",
    "evolution.select.busy_s": "s",
    "evolution.select.draws": "count",
    "evolution.crossover.busy_s": "s",
    "evolution.crossover.calls": "count",
    "evolution.mutate.busy_s": "s",
    "evolution.mutate.calls": "count",
    "evolution.sample_indices.busy_s": "s",
    "evolution.step.self_s": "s",
    "complexity.measure.busy_s": "s",
    "complexity.measure.calls": "count",
    "complexity.measure.member_sites": "count",
    "complexity.measure.ns_per_member_site": "ns",
    "core.population.busy_s": "s",
    "core.population.members": "count",
    "harness.stats_csv.busy_s": "s",
    "harness.snapshot_txt.busy_s": "s",
    "harness.snapshot_ppm.busy_s": "s",
    "harness.artifact_bytes": "bytes",
    "harness.read_population.busy_s": "s",
    "harness.read_population.bytes": "bytes",
    "harness.setup.busy_s": "s",
    "cli.import_s": "s",
    "trace.overhead_share": "ratio",
}

# set-up as the CLI does it, up to where its work starts; prints the clock
_SETUP_PROBE = {
    "run": (
        "import sys, time\n"
        "import evotropy.cli\n"
        "from evotropy.harness import build_evolution_config, parse_config\n"
        "with open(sys.argv[1], encoding='utf-8') as handle:\n"
        "    build_evolution_config(parse_config(handle.read()))\n"
        "print(repr(time.monotonic()))\n"
    ),
    "analyze": "import time\nimport evotropy.cli\nprint(repr(time.monotonic()))\n",
}


@dataclass
class Launch:
    exit_code: int
    seconds: float
    rss_mb: float
    started: float
    stdout: bytes
    stderr: bytes


@dataclass
class Execution:
    case: int
    kind: str  # "program", "baseline" or "traced"
    run_s: float
    rss_mb: float
    members: int = 0
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _environment(source: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(source)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the launcher and its program have already ended


def launch(argv: list, directory: Path, deadline: float, source: Path = SRC) -> Launch:
    """Run argv to completion in a fresh process; time it from launch to exit.

    The launcher forks the program and reports its times, peak memory and
    exit code.  `source` is the directory evotropy is imported from.  A
    program still running at `deadline` is killed together with its
    launcher.
    """
    remaining = deadline - clock()
    if remaining <= 0:
        return Launch(-signal.SIGKILL, 0.0, 0.0, clock(), b"", b"deadline passed")
    out_path, err_path = directory / "stdout", directory / "stderr"
    report = directory / "launch"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        process = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER), str(report), *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=_environment(source), cwd=ROOT, start_new_session=True,
        )
        signal.signal(signal.SIGALRM, lambda *_: _kill_group(process.pid))
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            process.wait()
        except BaseException:
            _kill_group(process.pid)
            process.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    if process.returncode != 0 or not report.is_file():
        return Launch(process.returncode or -1, 0.0, 0.0, clock(), stdout, stderr)
    started, ended, rss_kb, exit_code = report.read_text(encoding="ascii").split()
    return Launch(
        exit_code=int(exit_code),
        seconds=float(ended) - float(started),
        rss_mb=int(rss_kb) / 1024.0,  # Linux reports kilobytes
        started=float(started),
        stdout=stdout,
        stderr=stderr,
    )


def _launch_failures(result: Launch) -> list:
    failures = []
    if result.exit_code != 0:
        failures.append(f"exit code {result.exit_code}")
    if b"Traceback (most recent call last)" in result.stderr:
        failures.append("traceback on stderr")
    return failures


def digest_table(stdout: bytes, out_dir: Path) -> dict:
    table = {"stdout": hashlib.sha256(stdout).hexdigest()}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            table[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return table


def digest_failures(expected: dict | None, actual: dict) -> list:
    if expected is None:
        return ["no pinned digests"]
    failures = []
    for name in sorted(expected.keys() | actual.keys()):
        if name not in actual:
            failures.append(f"{name} missing")
        elif name not in expected:
            failures.append(f"{name} not pinned")
        elif expected[name] != actual[name]:
            failures.append(f"{name} digest mismatch")
    return failures


def _program_args(case: workloads.Case, out_dir: Path) -> list:
    if workloads.WORKLOADS[case.workload].kind == "run":
        return ["run", "--config", str(case.path), "--output-dir", str(out_dir)]
    return ["analyze", "--population", str(case.path)]


def _members(case: workloads.Case, stdout: bytes, out_dir: Path) -> int:
    """Members evolved (summed over generations 1..G) or members measured."""
    if workloads.WORKLOADS[case.workload].kind == "run":
        rows = (out_dir / "stats.csv").read_text(encoding="ascii").splitlines()[1:]
        return sum(int(row.split(",")[4]) for row in rows if not row.startswith("0,"))
    for line in stdout.decode("ascii").splitlines():
        if line.startswith("members: "):
            return int(line.split()[1])
    return 0


def execute(
    case: workloads.Case,
    kind: str,
    directory: Path,
    expected: dict | None,
    deadline: float,
    run_id: str,
) -> Execution:
    """One execution on `case`; the program's outputs are checked against digests."""
    directory.mkdir(parents=True)
    out_dir = directory / "out"
    args = _program_args(case, out_dir)
    spans = directory / "spans"
    if kind == "traced":
        argv = [sys.executable, str(TRACER), str(spans), run_id, "--", *args]
    else:
        argv = [sys.executable, "-m", "evotropy.cli", *args]
    result = launch(argv, directory, deadline, BASELINE if kind == "baseline" else SRC)
    execution = Execution(case.key, kind, result.seconds, result.rss_mb)
    execution.failures = _launch_failures(result)
    if kind != "baseline":
        execution.failures += digest_failures(expected, digest_table(result.stdout, out_dir))
    if not execution.failures:
        execution.members = _members(case, result.stdout, out_dir)
    if kind == "traced" and spans.with_suffix(".json").is_file():
        header, execution.layers = layer_values(spans)
        execution.run_s -= header["post_s"]
        execution.layers["harness.artifact_bytes"] = sum(
            path.stat().st_size for path in out_dir.iterdir()
        ) if out_dir.is_dir() else 0
    elif kind == "traced":
        execution.failures.append("tracer wrote no spans")
    shutil.rmtree(directory)
    return execution


def layer_values(prefix: Path) -> tuple[dict, dict]:
    """Per-layer values of one traced execution, from the spans it wrote.

    A layer's busy time and counts come from its outermost spans only, so
    a layer calling itself (from_rows building a Population) is not
    counted twice.  The step's self time is its span time minus that of
    its direct children.
    """
    header = json.loads(prefix.with_suffix(".json").read_text(encoding="ascii"))
    count = header["spans"]
    columns = [array(code) for code in header["typecodes"]]
    with open(prefix.with_suffix(".bin"), "rb") as handle:
        for column in columns:
            column.fromfile(handle, count)
    codes, starts, ends, parents, counts = columns
    names = header["names"]
    busy = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    work = dict.fromkeys(names, 0)
    step = names.index("evolution.step")
    step_self = 0.0
    for index in range(count):
        code = codes[index]
        duration = ends[index] - starts[index]
        parent = parents[index]
        if parent >= 0 and codes[parent] == step:
            step_self -= duration
        if code == step:
            step_self += duration
        while parent >= 0 and codes[parent] != code:
            parent = parents[parent]
        if parent >= 0:
            continue  # nested in a span of its own layer
        name = names[code]
        busy[name] += duration
        calls[name] += 1
        work[name] += counts[index]

    fitness_calls = calls["evolution.fitness"]
    member_sites = work["complexity.measure"]
    values = {
        "evolution.fitness.busy_s": busy["evolution.fitness"],
        "evolution.fitness.calls": fitness_calls,
        "evolution.fitness.distinct_sets": header["distinct_sets"],
        "evolution.fitness.distinct_share": (
            header["distinct_sets"] / fitness_calls if fitness_calls else 0.0
        ),
        "evolution.parsimony.busy_s": busy["evolution.parsimony"],
        "evolution.select.busy_s": busy["evolution.select"],
        "evolution.select.draws": work["evolution.select"],
        "evolution.crossover.busy_s": busy["evolution.crossover"],
        "evolution.crossover.calls": calls["evolution.crossover"],
        "evolution.mutate.busy_s": busy["evolution.mutate"],
        "evolution.mutate.calls": calls["evolution.mutate"],
        "evolution.sample_indices.busy_s": busy["evolution.sample_indices"],
        "evolution.step.self_s": step_self,
        "complexity.measure.busy_s": busy["complexity.measure"],
        "complexity.measure.calls": calls["complexity.measure"],
        "complexity.measure.member_sites": member_sites,
        "complexity.measure.ns_per_member_site": (
            busy["complexity.measure"] * 1e9 / member_sites if member_sites else 0.0
        ),
        "core.population.busy_s": busy["core.population"],
        "core.population.members": work["core.population"],
        "harness.stats_csv.busy_s": busy["harness.stats_csv"],
        "harness.snapshot_txt.busy_s": busy["harness.snapshot_txt"],
        "harness.snapshot_ppm.busy_s": busy["harness.snapshot_ppm"],
        "harness.read_population.busy_s": busy["harness.read_population"],
        "harness.read_population.bytes": work["harness.read_population"],
        "harness.setup.busy_s": busy["harness.setup"],
        "cli.import_s": header["import_s"],
    }
    return header, values


def setup_probe(kind: str, case: workloads.Case, directory: Path, deadline: float):
    """Seconds from interpreter launch until the program's work could start."""
    directory.mkdir(parents=True)
    argv = [sys.executable, "-c", _SETUP_PROBE[kind]]
    if kind == "run":
        argv.append(str(case.path))
    result = launch(argv, directory, deadline)
    shutil.rmtree(directory)
    failures = _launch_failures(result)
    if failures:
        return None, failures
    try:
        return float(result.stdout.decode("ascii")) - result.started, []
    except ValueError:
        return None, ["setup probe printed no clock reading"]


def spread(values: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    summary = {"n": len(ordered), "median": statistics.median(ordered) if ordered else None}
    if len(ordered) >= 11:
        rank = len(ordered) - 11
        summary["tail_percentile"] = round(100.0 * rank / (len(ordered) - 1), 1)
        summary["tail"] = ordered[rank]
    return summary


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
        if not text.startswith("ref: "):
            return text
        ref = text[len("ref: "):]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg": Path("/proc/loadavg").read_text(encoding="ascii").strip(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    digests: dict,
    size: str = "full",
) -> dict:
    """Measure one workload; return the full record of the run."""
    started = clock()
    deadline = started + DEADLINE_S
    stamp = machine_stamp()
    kind = workloads.WORKLOADS[name].kind
    work = OUT_DIR / "work" / f"{name}-{size}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cases = workloads.generate(name, seed, size, work / "inputs")
        expected = digests.get(size, {}).get(name, {})
        failures = []
        setups = []
        # the first launch compiles bytecode and warms file caches: not measured
        _, problems = setup_probe(kind, cases[0], work / "warm-up", deadline)
        failures += [f"setup warm-up: {problem}" for problem in problems]
        failed = int(bool(problems))
        probes = 1
        pairs = []
        kinds = ("program", "traced") if trace else ("program", "baseline")
        measure_start = clock()
        for number, case in enumerate(workloads.schedule(cases, seed, name)):
            # at least one whole round, then until the time is up
            if number >= len(cases) and clock() - measure_start >= seconds:
                break
            if clock() > deadline:
                break
            # one set-up probe per pair samples set-up across the whole run
            if not trace:
                value, problems = setup_probe(kind, case, work / f"probe{number}", deadline)
                failures += [f"setup probe {number}: {problem}" for problem in problems]
                failed += bool(problems)
                probes += 1
                if value is not None:
                    setups.append(value)
            pair = {}
            # alternate which side of the pair runs first
            for side in kinds if number % 2 == 0 else kinds[::-1]:
                index = 2 * number + len(pair)
                pair[side] = execute(
                    case,
                    side,
                    work / f"exec{index}",
                    expected.get(str(case.key)),
                    deadline,
                    f"{name}-seed{seed}-{index}",
                )
            pairs.append(pair)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    executions = [execution for pair in pairs for execution in pair.values()]
    attempted = probes + len(executions)
    for execution in executions:
        label = f"case {execution.case}" + ("" if execution.kind == "program" else f" {execution.kind}")
        failures += [f"{label}: {problem}" for problem in execution.failures]
        failed += bool(execution.failures)
    whole = [pair for pair in pairs if not any(e.failures for e in pair.values())]
    plain = [pair["program"] for pair in whole]
    other = kinds[1]
    run_times = [execution.run_s for execution in plain]
    # paired ratios cancel most of the machine's speed drift
    ratios = [pair["program"].run_s / pair[other].run_s for pair in whole]
    summaries = {
        "run_s": spread(run_times),
        f"{other}_run_s": spread([pair[other].run_s for pair in whole]),
        "setup_s": spread(setups),
        "peak_rss_mb": spread([execution.rss_mb for execution in plain]),
    }
    if trace:
        metrics = {
            metric: _median([pair["traced"].layers[metric] for pair in whole])
            for metric in PER_LAYER
            if metric != "trace.overhead_share"
        }
        # traced minus untraced run time, over untraced: 1/ratio - 1 per pair
        summaries["trace.overhead_share"] = spread([1.0 / ratio - 1.0 for ratio in ratios])
        metrics["trace.overhead_share"] = summaries["trace.overhead_share"]["median"] or 0.0
        units = PER_LAYER
        reported = {
            "run_s": summaries["run_s"]["median"] or 0.0,
            "traced_run_s": summaries["traced_run_s"]["median"] or 0.0,
        }
    else:
        summaries["run_vs_baseline"] = spread(ratios)
        metrics = {
            "run_vs_baseline": summaries["run_vs_baseline"]["median"] or 0.0,
            "setup_s": summaries["setup_s"]["median"] or 0.0,
            "peak_rss_mb": summaries["peak_rss_mb"]["median"] or 0.0,
        }
        units = END_TO_END
        total_time = sum(run_times)
        reported = {
            "run_s": summaries["run_s"]["median"] or 0.0,
            "baseline_run_s": summaries["baseline_run_s"]["median"] or 0.0,
            "members_per_s": (
                sum(execution.members for execution in plain) / total_time if total_time else 0.0
            ),
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "stamp": stamp,
        "elapsed_s": clock() - started,
        "attempted": attempted,
        "correct": failed == 0 and bool(whole),
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": failures,
        "summaries": summaries,
        "samples": [
            {"case": e.case, "kind": e.kind, "run_s": e.run_s, "rss_mb": e.rss_mb,
             "members": e.members, "failures": e.failures}
            for e in executions
        ],
        "metrics": {metric: {"value": metrics[metric], "unit": units[metric]} for metric in units},
        "reported": {name: {"value": value, "unit": REPORTED[name]} for name, value in reported.items()},
    }


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def report(record: dict) -> str:
    """Human-readable lines: every metric by name with its unit."""
    stamp = record["stamp"]
    lines = [
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"size={record['size']}: python {stamp['python']}, nproc {stamp['nproc']}, "
        f"git {stamp['git_sha'][:12]}, loadavg {stamp['loadavg']}",
    ]
    for name, metric in [*record["metrics"].items(), *record["reported"].items()]:
        line = f"  {name:40s} {metric['value']:.6g} {metric['unit']}"
        summary = record["summaries"].get(name)
        if summary:
            line += f"  (median of n={summary['n']}"
            if "tail" in summary:
                line += f"; p{summary['tail_percentile']:g} {summary['tail']:.6g}, 10 beyond"
            line += ")"
        lines.append(line)
    lines.append(
        f"  {'failed_share':40s} {record['failed_share']:.6g} ratio  "
        f"({record['failed']} of {record['attempted']} executions)"
    )
    lines += [f"  FAILED {problem}" for problem in record["failures"]]
    return "\n".join(lines)


def save(record: dict) -> None:
    directory = OUT_DIR / "results"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"{record['workload']}-{record['size']}-seed{record['seed']}-trace{record['trace']}.json"
    )
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")


def pin() -> int:
    """Run every case of every workload once and write their digests."""
    table = {}
    deadline = clock() + 3600.0
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            work = OUT_DIR / "pin" / f"{name}-{size}"
            shutil.rmtree(work, ignore_errors=True)
            for key in workloads.ABLATION_SEEDS:
                case = workloads.write_case(name, key, size, work / "inputs")
                directory = work / f"case{key}"
                directory.mkdir(parents=True)
                out_dir = directory / "out"
                argv = [sys.executable, "-m", "evotropy.cli", *_program_args(case, out_dir)]
                result = launch(argv, directory, deadline)
                problems = _launch_failures(result)
                if problems:
                    print(f"{name} {size} case {key}: {', '.join(problems)}", file=sys.stderr)
                    return 1
                table.setdefault(size, {}).setdefault(name, {})[str(key)] = digest_table(
                    result.stdout, out_dir
                )
            shutil.rmtree(work)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"pinned {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *workloads.WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-pin digests.json and exit")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the program it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "evotropy" / "__init__.py").is_file():
        print(f"error: no evotropy sources under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    try:
        digests = json.loads(DIGESTS.read_text(encoding="ascii"))
    except (OSError, ValueError) as error:
        print(f"error: cannot read pinned digests: {error}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), digests)
        save(record)
        print(report(record))
        print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
