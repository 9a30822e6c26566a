#!/usr/bin/env python3
"""Benchmark of the helmholtz_positivity certifier.

Run from the repository root:

    python3 perfbench/run.py --workload boundary-sweep --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with one client in one process):

  cli-cold        every operation is a fresh `python -m helmholtz_positivity.cli`
                  subprocess, cycling through six commands on fixed inputs
  boundary-sweep  in-process `cli.main(["positive-boundary", ...])` over seeded polygons
  set-pipeline    in-process `cli.main(["positive-set", ...])` over seeded tubes

The loop runs whole blocks of the workload's instances (see `instances.py`)
until --seconds have elapsed, so every run sees the same mix. Every output is then checked
by `verify.py`. With --trace 0 the end-to-end metrics are reported; with
--trace 1 a traced run (see `spans.py`) reports the per-layer metrics. A
summary goes to standard output and a full record, spans included, to
`.perfbench_results/`; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

WORKLOADS = ("cli-cold", "boundary-sweep", "set-pipeline")
COMMANDS = ("positive-boundary", "positive-set", "counterexample", "scan-k", "selftest")

#: Set-ups per run; setup_s is their median.
SETUPS = 3
#: Fresh-interpreter imports per traced run; import.cli_s is their median.
IMPORT_PROBES = 3
#: A subprocess still running after this long is killed and counts as failed.
OP_TIMEOUT_S = 60.0

END_TO_END = (("latency_p50_s", "s"), ("latency_tail_s", "s"), ("ops_per_s", "1/s"),
              ("margin_p50", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    from spans import COUNTS, GROUPS

    units = {"import.cli_s": "s"}
    units.update({f"cli.{c}_s": "s" for c in COMMANDS})
    for g in GROUPS:
        per = "s" if g == "specfun.bessel_zero" else "s/op"
        units[f"{g}_s"] = per
        units[f"{g}_self_s"] = per
    units.update({c: "count/op" for c in COUNTS})
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_package():
    """Import helmholtz_positivity.cli from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import helmholtz_positivity.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS library bundled with numpy and scipy."""
    import ctypes
    import numpy
    import scipy

    getters = [f"{p}openblas_get_num_threads{s}" for p in ("scipy_", "") for s in ("64_", "")]
    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            fn = next((getattr(handle, g) for g in getters if hasattr(handle, g)), None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[lib.name] = int(fn())
    return found


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Files:
    """Input and output paths of the instances under one work directory."""

    def __init__(self, work: Path):
        self.inputs = work / "inputs"
        self.outputs = work / "outputs"

    def write_inputs(self, insts) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        for inst in insts:
            for flag in inst.inputs:
                self.input_path(inst, flag).write_text(inst.input_text(flag), encoding="utf-8")

    def input_path(self, inst, flag) -> Path:
        return self.inputs / f"{inst.name}.{flag.lstrip('-')}.json"

    def output_paths(self, inst) -> dict:
        out = {"--out": self.outputs / f"{inst.name}.report.json"}
        if inst.command in ("positive-boundary", "positive-set"):
            out["--wave"] = self.outputs / f"{inst.name}.wave.json"
        if inst.command == "scan-k":
            out["--csv"] = self.outputs / f"{inst.name}.csv"
        return out

    def argv(self, inst) -> list:
        argv = [inst.command]
        for flag in inst.inputs:
            argv += [flag, str(self.input_path(inst, flag))]
        argv += list(inst.args)
        for flag, path in self.output_paths(inst).items():
            argv += [flag, str(path)]
        return argv

    def clear_outputs(self, inst) -> None:
        for path in self.output_paths(inst).values():
            path.unlink(missing_ok=True)

    def read_outputs(self, inst) -> dict:
        texts = {}
        for flag, path in self.output_paths(inst).items():
            texts[flag] = path.read_text(encoding="utf-8") if path.exists() else None
        return {"report": texts["--out"], "wave": texts.get("--wave"),
                "csv": texts.get("--csv")}


def run_in_process(cli, inst, files) -> dict:
    argv = files.argv(inst)
    files.clear_outputs(inst)
    buf = io.StringIO()
    crash = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code, crash = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
    return {"inst": inst, "command": inst.command, "latency": latency, "code": code,
            "crash": crash, "output": buf.getvalue()[-2000:], **files.read_outputs(inst)}


def run_subprocess(inst, files, cwd) -> dict:
    argv = [sys.executable, "-m", "helmholtz_positivity.cli", *files.argv(inst)]
    files.clear_outputs(inst)
    crash, output = None, ""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=_child_env(), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        code, output = proc.returncode, (proc.stdout + proc.stderr)[-2000:]
        if "Traceback" in proc.stderr:
            crash = proc.stderr[-2000:]
    except subprocess.TimeoutExpired:
        code, crash = None, f"killed after {OP_TIMEOUT_S} s"
    latency = time.perf_counter() - t0
    return {"inst": inst, "command": inst.command, "latency": latency, "code": code,
            "crash": crash, "output": output, **files.read_outputs(inst)}


def run_block(block, run_one, first_id: int) -> tuple:
    """Run one block; returns (ops, wall seconds). run_one(op_id, inst)."""
    t0 = time.perf_counter()
    ops = [run_one(first_id + j, inst) for j, inst in enumerate(block)]
    return ops, time.perf_counter() - t0


def distinct(blocks) -> list:
    return list({inst.name: inst for block in blocks for inst in block}.values())


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_in_process(workload, seed, smoke, work, tracer_hook=None):
    """Import, input generation and one warm-up operation, timed together.

    The warm-up fills the lazy caches (the specfun zero cache among them).
    `tracer_hook(modules)` returns a tracer to record the warm-up with.
    """
    t0 = time.perf_counter()
    cli = import_package()
    import instances

    blocks = instances.workload_blocks(workload, seed, smoke)
    files = Files(work)
    files.write_inputs(distinct(blocks))
    tracer = tracer_hook(package_modules()) if tracer_hook else None
    if tracer:
        tracer.install()
    try:
        run_in_process(cli, blocks[0][0], files)
    finally:
        if tracer:
            tracer.uninstall()
    return time.perf_counter() - t0, cli, blocks, files, tracer


def setup_cli_cold(seed, smoke, work):
    """Input generation plus one warm-up CLI subprocess (`--help`)."""
    import instances

    t0 = time.perf_counter()
    blocks = instances.workload_blocks("cli-cold", seed, smoke)
    files = Files(work)
    files.write_inputs(distinct(blocks))
    subprocess.run([sys.executable, "-m", "helmholtz_positivity.cli", "--help"], cwd=work,
                   env=_child_env(), capture_output=True, timeout=OP_TIMEOUT_S, check=True)
    return time.perf_counter() - t0, blocks, files


def package_modules() -> dict:
    from helmholtz_positivity import certify, cli, dirichlet, geometry, herglotz, linalg, specfun

    return {"cli": cli, "geometry": geometry, "dirichlet": dirichlet, "herglotz": herglotz,
            "linalg": linalg, "certify": certify, "specfun": specfun}


def child_setups(args, count: int) -> list:
    """Set-up times of `count` fresh interpreters (see --setup-child)."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def import_probes(count: int) -> list:
    """Seconds to import helmholtz_positivity.cli in a fresh interpreter,
    timed inside it, so interpreter start-up is excluded."""
    code = ("import sys, time; t = time.perf_counter(); import helmholtz_positivity.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                                 capture_output=True, text=True, timeout=OP_TIMEOUT_S,
                                 check=True).stdout)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# verification and metrics
# ---------------------------------------------------------------------------

def _same_output(a: dict, b: dict) -> bool:
    def report(op):
        if op["report"] is None:
            return None
        rep = json.loads(op["report"])
        rep.pop("wall_time_s", None)
        return rep

    return (a["code"], a["crash"] is None, a["wave"], a["csv"]) == \
        (b["code"], b["crash"] is None, b["wave"], b["csv"]) and report(a) == report(b)


def verify_ops(ops) -> None:
    """Set op["problems"] (empty when accepted) and op["wrong"] (an output
    the program presented as a success, or one that changed between runs
    of the same instance). Each instance is checked once; its later runs
    must repeat the first one's outputs."""
    import verify

    first = {}
    for op in ops:
        inst = op["inst"]
        ref = first.get(inst.name)
        if ref is None:
            first[inst.name] = op
            if op["crash"]:
                op["problems"] = [f"crashed: {op['crash'].strip().splitlines()[-1]}"]
            else:
                try:
                    op["problems"] = verify.check(
                        inst, op["code"], verify.load_json(op["report"]),
                        verify.load_json(op["wave"]), op["csv"], op["output"])
                except (ValueError, KeyError, TypeError) as exc:
                    op["problems"] = [f"unreadable output: {exc!r}"]
            op["wrong"] = op["code"] == 0 and bool(op["problems"])
        elif _same_output(op, ref):
            op["problems"], op["wrong"] = ref["problems"], ref["wrong"]
        else:
            op["problems"] = ["output differs from an earlier run of the same instance"]
            op["wrong"] = True
        op["margin"] = None if op["problems"] else verify.margin_over_c0(
            verify.load_json(op["report"]))


def tail_latency(latencies) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples above it. A run of 20 samples or fewer (a cold-CLI run has
    12 or 18) has no such percentile above its median; there it is the
    90th percentile, interpolated between the two samples around it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 20:
        return (statistics.quantiles(xs, n=10, method="inclusive")[-1] if n > 1 else xs[0],
                90.0)
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops, loop_s, setups, rss_mb) -> tuple:
    latencies = [op["latency"] for op in ops]
    failed = sum(bool(op["problems"]) for op in ops)
    margins = [op["margin"] for op in ops if op["margin"] is not None]
    tail, pct = tail_latency(latencies)
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "ops_per_s": len(ops) / loop_s,
        "margin_p50": statistics.median(margins) if margins else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "latency_tail_percentile": pct,
        "latency_samples": len(latencies),
        "failed_ratio": failed / len(ops),
        "failed": failed,
        "attempted": len(ops),
        "margin_samples": len(margins),
        "setups_s": setups,
        "loop_s": loop_s,
    }
    return values, detail


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def command_medians(ops) -> dict:
    out = {}
    for cmd in COMMANDS:
        lat = [op["latency"] for op in ops if op["command"] == cmd]
        out[f"cli.{cmd}_s"] = statistics.median(lat) if lat else 0.0
    return out


def per_layer(tracer, traced_ops, untraced_s, traced_s, cold_medians, imports) -> dict:
    """Per-layer metrics: per traced operation, except the cold per-command
    medians, the import probes and specfun.bessel_zero (whole run)."""
    from spans import COUNTS, GROUPS

    n = len(traced_ops)
    ids = [op["id"] for op in traced_ops]
    totals = tracer.layer_totals(ids)
    everything = tracer.layer_totals()
    values = {"import.cli_s": statistics.median(imports)}
    values.update(cold_medians)
    for g in GROUPS:
        incl, own = everything[g] if g == "specfun.bessel_zero" else \
            (totals[g][0] / n, totals[g][1] / n)
        values[f"{g}_s"], values[f"{g}_self_s"] = incl, own
    values.update({c: tracer.counts[c] / n for c in COUNTS})
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return values


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def loop_blocks(blocks, run_one, seconds, smoke) -> tuple:
    """Whole blocks, wrapping around, until `seconds` have elapsed (one
    block in smoke mode). Returns (ops, wall seconds)."""
    ops, t0 = [], time.perf_counter()
    for b in itertools.cycle(range(len(blocks))):
        ops += run_block(blocks[b], run_one, len(ops))[0]
        if smoke or time.perf_counter() - t0 >= seconds:
            return ops, time.perf_counter() - t0


def traced_pairs(blocks, run_one, tracer, seconds, smoke, first_id=0) -> tuple:
    """Run each block untraced and then traced, until `seconds` have elapsed.

    Returns (untraced ops, traced ops, untraced wall, traced wall)."""
    plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
    t0 = time.perf_counter()
    for b in itertools.cycle(range(len(blocks))):
        batch, wall = run_block(blocks[b], run_one, first_id + len(plain) + len(traced))
        plain += batch
        plain_s += wall
        tracer.install()
        try:
            batch, wall = run_block(blocks[b], run_one, first_id + len(plain) + len(traced))
        finally:
            tracer.uninstall()
        traced += batch
        traced_s += wall
        if smoke or time.perf_counter() - t0 >= seconds:
            return plain, traced, plain_s, traced_s


def new_tracer(modules):
    """A Tracer; `spans` (and numpy with it) is imported only once the
    package is, so that a set-up's import time includes numpy's."""
    from spans import Tracer

    return Tracer(modules)


def timed_run(args, work: Path) -> dict:
    """--trace 0: set-ups, whole blocks until --seconds have elapsed, checks,
    and the end-to-end metrics."""
    smoke = args.smoke
    n_setups = 1 if smoke else SETUPS
    cold = args.workload == "cli-cold"
    if cold:
        setups = []
        for _ in range(n_setups):
            setup_s, blocks, files = setup_cli_cold(args.seed, smoke, work)
            setups.append(setup_s)

        def run_one(op_id, inst):
            return dict(run_subprocess(inst, files, work), id=op_id)
    else:
        setup_s, cli, blocks, files, _ = setup_in_process(args.workload, args.seed, smoke, work)

        def run_one(op_id, inst):
            return dict(run_in_process(cli, inst, files), id=op_id)

    ops, loop_s = loop_blocks(blocks, run_one, args.seconds, smoke)
    if not cold:
        setups = [setup_s] + child_setups(args, n_setups - 1)
    verify_ops(ops)
    values, detail = end_to_end(ops, loop_s, setups, peak_rss_mb(children=cold))
    return {"ops": ops, "values": values, "detail": detail}


def traced_run(args, work: Path) -> dict:
    """--trace 1: one block of the cold-CLI mix as subprocesses (for
    cli.<command>_s), then the workload's blocks in-process, each untraced
    and then traced, for the rest of --seconds; then the per-layer metrics."""
    smoke = args.smoke
    _, cold_blocks, files = setup_cli_cold(args.seed, smoke, work)
    cold_ops, cold_s = run_block(
        cold_blocks[0], lambda op_id, inst: dict(run_subprocess(inst, files, work), id=op_id), 0)
    _, cli, blocks, files, tracer = setup_in_process(args.workload, args.seed, smoke, work,
                                                     tracer_hook=new_tracer)
    tracer.counts.clear()

    def hot(op_id, inst):
        tracer.op = op_id
        return dict(run_in_process(cli, inst, files), id=op_id)

    plain, traced, plain_s, traced_s = traced_pairs(
        blocks, hot, tracer, max(args.seconds - cold_s, 0.0), smoke, first_id=len(cold_ops))
    ops = cold_ops + plain + traced
    verify_ops(ops)
    imports = import_probes(1 if smoke else IMPORT_PROBES)
    values = per_layer(tracer, traced, plain_s, traced_s, command_medians(cold_ops), imports)
    detail = {"attempted": len(ops), "failed": sum(bool(op["problems"]) for op in ops),
              "traced_ops": len(traced), "untraced_wall_s": plain_s,
              "traced_wall_s": traced_s, "import_probes_s": imports}
    return {"ops": ops, "values": values, "detail": detail,
            "spans": [s.as_json() for s in tracer.spans]}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def failure_summary(ops) -> Counter:
    """Problem texts with their numbers masked, and how often each occurs."""
    return Counter(re.sub(r"-?\d[\d.e+-]*", "#", p) for op in ops for p in op["problems"])


def print_summary(args, env, record, units) -> None:
    d = record["detail"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in record["values"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'latency_tail_s is p':<34} {d['latency_tail_percentile']:>14.4g} "
              f"of {d['latency_samples']} samples")
        print(f"  {'failed_ratio':<34} {d['failed_ratio']:>14.6g} ratio "
              f"({d['failed']} of {d['attempted']} failed)")
        print(f"  {'setup_s is the median of':<34} {len(d['setups_s']):>14d} set-ups")
    for problem, count in sorted(failure_summary(record["ops"]).items()):
        print(f"  failed x{count}: {problem}")


def write_record(args, env, record) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    keep = ("id", "command", "latency", "code", "problems", "margin")
    body = {"environment": env, "metrics": record["values"], "detail": record["detail"],
            "ops": [{"instance": op["inst"].name, **{k: op.get(k) for k in keep}}
                    for op in record["ops"]]}
    if "spans" in record:
        body["spans"] = record["spans"]
    path.write_text(json.dumps(body) + "\n", encoding="utf-8")
    return path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few operations, one pass and one set-up (for tests)")
    p.add_argument("--setup-child", dest="setup_child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "helmholtz_positivity" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_child:
            setup_s = setup_in_process(args.workload, args.seed, False, work)[0]
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = (traced_run if args.trace else timed_run)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    all_units = dict(END_TO_END) if not args.trace else per_layer_units()
    print_summary(args, env, record, all_units)
    path = write_record(args, env, record)
    print(f"record written to {path.relative_to(ROOT)}")
    failed = sum(bool(op["problems"]) for op in record["ops"])
    result = {
        "correct": not any(op["wrong"] for op in record["ops"]),
        "attempted": len(record["ops"]),
        "failed": failed,
        "metrics": {name: {"value": record["values"][name], "unit": unit}
                    for name, unit in all_units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
