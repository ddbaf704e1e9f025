"""mgnef benchmark.

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* certify-ladder  cold ``python -m mgnef certify --genus g --format json``, g = 20..80
* rays-ladder     cold ``python -m mgnef rays --genus g --format json``, g = 5..10
* query-mix       in-process text queries (check, pullback, vrep) at g = 24, 32, 40

Each is a closed loop with one client.  Ladders run rounds over their
genera, largest first: every genus once and the largest twice, then the
ones whose slowest run still fits in ``--seconds``, until none does;
query-mix replays one seeded script until ``--seconds`` is used.
Every output is checked: ladder stdout against digests recorded at the
seed commit plus the independent checks in ``oracle``, query answers
against the answers known by construction.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer metrics.  Metric
names and units are read from ``BENCHMARK.json``; their meanings are in
``README.md`` next to this file.  The exit status is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from math import ceil
from pathlib import Path
from time import perf_counter

import oracle
import queries
import tracer
from launcher import SRC, require_checkout_mgnef

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

LADDERS = {
    "certify-ladder": ("certify", (20, 40, 60, 80)),
    "rays-ladder": ("rays", (5, 6, 7, 8, 9, 10)),
}
WORKLOADS = (*LADDERS, "query-mix")
SETUP_SAMPLES = 11
# query-mix script length in passes: 14 x 72 = 1008 queries, so the nearest-rank
# 99th percentile has ten samples beyond it
PASSES = 14
IMPORT_CLI = "import mgnef.cli"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {trace: {m["name"]: m["unit"] for m in SPEC[key]}
         for trace, key in ((False, "end_to_end"), (True, "per_layer"))}

# Layers each workload must reach; a layer with no calls means the tracer
# missed a call site or the workload stopped exercising that layer.
EXERCISED = {
    "certify-ladder": ("cli", "fcurves", "divisors", "linalg", "cones"),
    "rays-ladder": ("cli", "fcurves", "divisors", "linalg", "cones"),
    "query-mix": ("fcurves", "divisors", "linalg", "cones", "torelli"),
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(ceil(p / 100 * len(ordered)) - 1, 0)]


class Run:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, import_s: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.import_s = import_s  # of mgnef.cli into this process
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, errs: list[str]) -> None:
        self.attempted += 1
        if errs:
            self.errors.append("; ".join(errs))


# -- child processes ----------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], out_dir: Path) -> tuple[float, int, float, bytes, bytes]:
    """Run a child to completion: wall s, exit code, own peak RSS MB, stdout, stderr."""
    out, err = out_dir / "stdout", out_dir / "stderr"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=_child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, out.read_bytes(), err.read_bytes()


def setup_samples(code: str, tmp: Path, count: int = SETUP_SAMPLES) -> list[float]:
    """Wall times of ``count`` fresh interpreters running ``code``."""
    samples = []
    for _ in range(count):
        wall, rc, _, _, err = spawn([sys.executable, "-c", code], tmp)
        if rc != 0:
            sys.exit(f"perfbench: set-up child failed: {err.decode().strip()}")
        samples.append(wall)
    return samples


def check_child_import(code: str, tmp: Path) -> None:
    """One untimed run of ``code`` that fills the bytecode cache and
    confirms that children import mgnef from the checkout."""
    probe = f"{code}\nimport mgnef; print(mgnef.__file__)"
    _, rc, _, out, err = spawn([sys.executable, "-c", probe], tmp)
    where = Path(out.decode().strip() or ".").resolve()
    if rc != 0 or SRC not in where.parents:
        sys.exit(f"perfbench: child imported mgnef from {where} ({err.decode().strip()})")


# -- ladders --------------------------------------------------------------------


def ladder_command(run: Run, cmd: str, g: int, golden: str, tmp: Path, trace: bool):
    """One cold command; returns (wall, rss, stdout, trace or None)."""
    argv = [cmd, "--genus", str(g), "--format", "json"]
    trace_file = tmp / f"trace-{cmd}-{g}.json"
    if trace:
        child = [sys.executable, str(BENCH / "launcher.py"), str(trace_file), *argv]
    else:
        child = [sys.executable, "-m", "mgnef", *argv]
    wall, rc, rss, out, err = spawn(child, tmp)
    errs = []
    if rc != 0:
        errs.append(f"{cmd} g={g}: exit {rc}: {err.decode(errors='replace').strip()[-300:]}")
    elif hashlib.sha256(out).hexdigest() != golden:
        errs.append(f"{cmd} g={g}: stdout differs from the seed-commit output")
    if rc == 0:
        check = oracle.check_certify if cmd == "certify" else oracle.check_rays
        try:
            errs += check(g, json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            errs.append(f"{cmd} g={g}: unreadable output ({exc})")
    run.record(errs)
    tr = json.loads(trace_file.read_text()) if trace and trace_file.exists() else None
    return wall, rss, out, tr


def ladder(run: Run, trace: bool) -> dict:
    cmd, genera = LADDERS[run.workload]
    golden = json.loads((BENCH / "golden.json").read_text())[cmd]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp_name:
        tmp = Path(tmp_name)
        check_child_import(IMPORT_CLI, tmp)

        def one_pass(traced: bool):
            return {g: ladder_command(run, cmd, g, golden[str(g)], tmp, traced) for g in genera}

        if trace:
            plain, traced = one_pass(False), one_pass(True)
            for g in genera:
                if plain[g][2] != traced[g][2]:
                    run.errors.append(f"{cmd} g={g}: traced output differs from untraced")
            traces = [r[3] for r in traced.values() if r[3] is not None]
            if len(traces) != len(genera):
                run.errors.append("a traced command wrote no trace")
            for g, (wall, _, _, tr) in traced.items():
                if tr is not None:
                    run.errors += check_roots(f"{cmd} g={g}", tr, wall)
            ratio = sum(r[0] for r in traced.values()) / sum(r[0] for r in plain.values())
            import_s = statistics.median(t["import_s"] for t in traces) if traces else 0.0
            return traced_metrics(run, traces, ratio, import_s)

        # The first round runs every genus, largest first, and then the
        # largest again, so the top command, which is most of wall_s, always
        # has two samples a round apart.  Later rounds run, largest first,
        # each genus whose slowest run so far still fits in the time left.
        # A set-up sample follows every command, so set-up time is sampled
        # across the whole run rather than in one spell of it.
        samples = {g: [] for g in genera}
        setup = []

        def sample(g: int) -> None:
            samples[g].append(ladder_command(run, cmd, g, golden[str(g)], tmp, False))
            setup.extend(setup_samples(IMPORT_CLI, tmp, 1))

        start = perf_counter()
        for g in (*reversed(genera), genera[-1]):
            sample(g)
        ran = True
        while ran:
            ran = False
            for g in reversed(genera):
                if max(r[0] for r in samples[g]) < run.seconds - (perf_counter() - start):
                    sample(g)
                    ran = True
        setup += setup_samples(IMPORT_CLI, tmp, SETUP_SAMPLES - len(setup))
    # A command's time is its median run: every run does identical work,
    # and the median over the run is steadier on a shared host than any
    # one run.
    walls = [statistics.median(r[0] for r in samples[g]) for g in genera]
    return {
        "wall_s": sum(walls),
        "top_cmd_s": walls[-1],
        "queries_per_s": len(walls) / sum(walls),
        "query_p50_ms": 1000 * statistics.median(walls),
        "query_p99_ms": 1000 * percentile(walls, 99),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r[1] for g in genera for r in samples[g]),
        "_samples": sum(len(r) for r in samples.values()),
        "_setup_samples": len(setup),
        **{f"_g{g}_s": w for g, w in zip(genera, walls)},
        **{f"_g{g}_samples": len(samples[g]) for g in genera},
    }


# -- query mix ------------------------------------------------------------------


def play(run: Run, mg, script):
    """Answer and check a script; returns (latencies, answers)."""
    latencies, answers = [], []
    for q in script:
        t0 = perf_counter()
        try:
            answer = queries.run(mg, q)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = ("error", repr(exc))
        latencies.append(perf_counter() - t0)
        answers.append(answer)
        failed = answer[0] == "error"
        run.record([f"{q.text!r}: {answer[1]}"] if failed else queries.check(q, answer))
    return latencies, answers


def shares_keys() -> list[str]:
    return ["query.fnef_share"] + [f"query.{kind}_share" for kind in queries.KINDS]


def shares(script) -> dict:
    """Share of F-nef queries (full scans) and of each kind in a pass; the
    same for every pass, since each holds every stratum equally often."""
    fnef = sum(q.fnef for q in script)
    kinds = [sum(q.kind == kind for q in script) for kind in queries.KINDS]
    return dict(zip(shares_keys(), [n / len(script) for n in (fnef, *kinds)]))


def query_mix(run: Run, trace: bool) -> dict:
    import mgnef as mg
    warm = "import mgnef.cli\n" + "".join(
        f"mgnef.numerical_classes({g})\n" for g in queries.GENERA
    )
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp_name:
        check_child_import(warm, Path(tmp_name))
        setup = setup_samples(warm, Path(tmp_name))

    if trace:
        tr = tracer.Tracer()
        tr.request = "setup"
        tr.install()
        try:
            for g in queries.GENERA:
                mg.numerical_classes(g)
        finally:
            tr.uninstall()
        play(run, mg, queries.generate(run.seed, 0))
        script = queries.generate(run.seed, 1)
        plain_lat, plain_ans = play(run, mg, script)
        traced_lat, traced_ans = [], []
        tr.install()
        try:
            for i, q in enumerate(script):
                tr.request = i
                lat, ans = play(run, mg, [q])
                traced_lat += lat
                traced_ans += ans
        finally:
            tr.uninstall()
        if traced_ans != plain_ans:
            run.errors.append("traced answers differ from untraced")
        out = traced_metrics(run, [tr.snapshot()], sum(traced_lat) / sum(plain_lat), run.import_s)
        out.update(shares(script))
        return out

    for g in queries.GENERA:
        mg.numerical_classes(g)
    warmup = queries.generate(run.seed, 0)
    play(run, mg, warmup)  # untimed
    # One script of PASSES passes is replayed until ``--seconds`` is used.
    # Every replay does identical work (only class tables are cached, and
    # they are warm), so a query's latency is its median over the replays
    # and the script's time is the median replay.  A median over the run is
    # steadier on a shared host than one replay, and a per-query minimum
    # would put the host's stalls, not the query costs, in the tail: the
    # slowest percent are full F-nef scans of equal cost.  The record is one
    # double per query and replay, 8 KB per replay.
    script = [q for n in range(1, PASSES + 1) for q in queries.generate(run.seed, n)]
    top_genus = [q.genus == max(queries.GENERA) for q in script]
    every = [array("d") for _ in script]
    replays = []  # (script time, time of its largest-genus queries)
    start = perf_counter()
    while not replays or perf_counter() - start < run.seconds:
        lat, _ = play(run, mg, script)
        for record, t in zip(every, lat):
            record.append(t)
        replays.append((sum(lat), sum(t for t, top in zip(lat, top_genus) if top)))
    latency = [statistics.median(record) for record in every]
    wall = statistics.median(r[0] for r in replays)
    return {
        "wall_s": wall,
        "top_cmd_s": statistics.median(r[1] for r in replays),
        "queries_per_s": len(script) / wall,
        "query_p50_ms": 1000 * statistics.median(latency),
        "query_p99_ms": 1000 * percentile(latency, 99),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "_samples": len(replays) * len(script),
        "_percentile_samples": len(latency),
        "_replays": len(replays),
        **{f"_{k}": v for k, v in shares(warmup).items()},
    }


# -- traced runs ------------------------------------------------------------------


def check_roots(label: str, trace: dict, wall: float) -> list[str]:
    """The command's spans all descend from one ``cli.main`` span, which
    ends within the child's wall time.  Then the layers' self times add up
    to ``cli.main_s`` exactly, and no traced work ran outside it."""
    roots = [sp for sp in trace["spans"] if sp[3] < 0]
    if [sp[0] for sp in roots] != ["cli.main"]:
        return [f"trace {label}: root spans {[sp[0] for sp in roots][:5]}, expected one cli.main"]
    main_s = roots[0][2] - roots[0][1]
    if not 0 < main_s + trace["import_s"] < wall:
        return [f"trace {label}: cli.main {main_s:.4f} s + import {trace['import_s']:.4f} s "
                f"outside the command's wall time {wall:.4f} s"]
    return []


def traced_metrics(run: Run, traces, ratio: float, import_s: float) -> dict:
    out, activity = tracer.layer_metrics(UNITS[True], traces)
    out["cli.import_s"] = import_s
    out["trace.overhead_ratio"] = ratio
    out.update(dict.fromkeys(shares_keys(), 0.0))
    for layer in EXERCISED[run.workload]:
        if not activity.get(layer):
            run.errors.append(f"trace: no calls recorded in layer {layer}")
    dd = out["cones.dd_rank_calls"]
    if run.workload == "rays-ladder" and dd == 0:
        run.errors.append("trace: no double-description rank calls on rays-ladder")
    if run.workload == "certify-ladder" and dd != 0:
        run.errors.append("trace: double-description rank calls on certify-ladder")
    trace_dir = ROOT / ".perfbench-trace"
    trace_dir.mkdir(exist_ok=True)
    with open(trace_dir / f"{run.workload}.json", "w", encoding="utf-8") as fh:
        json.dump(traces, fh)
    return out


# -- entry point ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 import_s: float) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds, import_s)
    values = query_mix(run, trace) if workload == "query-mix" else ladder(run, trace)
    units = UNITS[trace]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"{workload}: {run.attempted} operations, {len(run.errors)} failed, "
          f"error_rate {len(run.errors) / max(run.attempted, 1):.4g}")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    for name, value in values.items():
        if name.startswith("_"):
            print(f"  {name[1:]:<24} {value:.6g}")
    for e in run.errors[:20]:
        print(f"  FAILED: {e}", file=sys.stderr)
    return run, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _, import_s = require_checkout_mgnef()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    runs, metrics = [], {}
    for w in chosen:
        run, m = run_workload(w, args.seed, args.seconds, bool(args.trace), import_s)
        runs.append(run)
        metrics.update(m if len(chosen) == 1 else {f"{w}/{k}": v for k, v in m.items()})
    failed = sum(len(r.errors) for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
