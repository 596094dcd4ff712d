"""Benchmark for digraphsub: one seeded closed-loop workload per call.

    python3 bench/run.py --workload k3e-sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One caller in one process, no threads: set-up builds the
seeded inputs (three times, reporting the median), then rounds of ops
run back to back until the ops have taken ``--seconds``.  Every answer
is checked.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, and its per-layer
metrics with ``--trace 1``, where every public function of the library
is wrapped and timed (see ``tracing.py``).  The line before it holds
the run context, outcome counts and the certificate digest: a sha256
over the canonical answers of the first rounds and the CLI round trip's
certificate, which must be equal for the same seed whatever the mode.
"""

import os
import sys
import time

# pin BLAS before numpy loads: one caller, no threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave the checkout as it was

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import tempfile
import traceback
from collections import Counter

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "digraphsub" / "__init__.py").is_file():
        print(f"error: no digraphsub sources under {SRC}", file=sys.stderr)
        return 2

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy
    import digraphsub
    from digraphsub import cli, core
    from digraphsub.errors import BudgetExceeded
    from tracing import Probe, Tracer
    from workloads import FAILED, UNDECIDED, WORKLOADS, Outcome, canonical
    import_s = time.perf_counter() - t_import
    if pathlib.Path(digraphsub.__file__).resolve().parent != SRC / "digraphsub":
        print(f"error: imported digraphsub from {digraphsub.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    traced = bool(args.trace)
    probe = Probe(traced)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()

    setup_times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous inputs before building again
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, probe)
        workload.warmup()
        setup_times.append(time.perf_counter() - t0)
    probe.reset()
    if tracer:
        tracer.reset()

    times: list[float] = []
    status = Counter()
    failures: list[str] = []
    digest = hashlib.sha256()
    prefix_nodes = prefix_ops = 0
    measured = 0.0
    rounds = 0
    while rounds < workload.digest_rounds or measured < args.seconds:
        in_prefix = rounds < workload.digest_rounds
        for op in workload.round(rounds):
            t0 = time.perf_counter()
            try:
                out = op()
            except BudgetExceeded:
                out = Outcome(UNDECIDED, "budget")
            except Exception as exc:  # an op that crashes breaks the contract; keep going
                out = Outcome(FAILED, "error:" + type(exc).__name__,
                              traceback.format_exc(limit=-3).strip())
            dt = time.perf_counter() - t0
            times.append(dt)
            measured += dt
            status[out.status] += 1
            if out.status == FAILED and len(failures) < 5:
                failures.append(f"round {rounds}: {out.note}")
            nodes = probe.take_nodes()
            if in_prefix:
                digest.update(canonical(out.answer).encode() + b"\n")
                prefix_nodes += nodes
                prefix_ops += 1
        rounds += 1
        if traced and rounds == workload.digest_rounds:
            prefix_phase_nodes = sum(probe.phases.values())

    if traced:
        values = layer_values(tracer, probe, spec)  # before the CLI adds calls

    host, pattern_spec = workload.cli_case()
    find_s, check_s, cli_note, cli_cert = cli_round_trip(cli, core, host, pattern_spec)
    if cli_note:
        failures.append("cli: " + cli_note)
    digest.update(cli_cert.encode())

    attempted = len(times)
    consistent = True
    if traced:
        values.update({
            "ops.failed_share": status[FAILED] / attempted,
            "ops.undecided_share": status[UNDECIDED] / attempted,
            "traced.ops_per_s": attempted / measured,
            "cli.find_s": find_s,
            "cli.check_s": check_s,
        })
        # a counting budget must see exactly what the plain one consumes
        consistent = prefix_phase_nodes == prefix_nodes
        if not consistent:
            failures.append(f"per-phase nodes {prefix_phase_nodes} != consumed {prefix_nodes}")
    else:
        cuts = statistics.quantiles([t * 1e3 for t in times], n=100)
        values = {
            "ops_per_s": attempted / measured,
            "op_ms.p50": cuts[49],
            "op_ms.p90": cuts[89],
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    section = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "context": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git_sha": git_sha(),
        },
        "rounds": rounds,
        "measured_s": measured,
        "outcomes": dict(status),
        "digest": digest.hexdigest(),
        "digest_rounds": workload.digest_rounds,
        "digest_ops": prefix_ops,
        "digest_nodes": prefix_nodes,
        "events": dict(sorted(probe.events.items())),
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "failures": failures,
    }
    if tracer:
        info["spans"] = {
            key: {"calls": tracer.calls[key], "s": tracer.inclusive[key]}
            for key in sorted(tracer.calls)
        }
        info["self_s"] = dict(sorted(tracer.self_s.items()))
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": status[FAILED] == 0 and not cli_note and consistent,
        "attempted": attempted,
        "failed": status[FAILED],
        "metrics": metrics,
    }))
    return 0


def layer_values(tracer, probe, spec) -> dict:
    """Per-layer metric values from the spans and the public hooks."""
    values = {}
    for key, calls in tracer.calls.items():
        values[key + ".calls"] = calls
        values[key + ".s"] = tracer.inclusive[key]
        values[key + ".found_ratio"] = tracer.found[key] / calls
    for module, seconds in tracer.self_s.items():
        values[module + ".self_s"] = seconds
    prefixes = {"oracle": "oracle.nodes.", "cab": "cab.budget.", "two_block": "two_block.budget."}
    for (module, phase), nodes in probe.phases.items():
        values[prefixes[module] + phase] = nodes
    oracle_nodes = sum(n for (module, _), n in probe.phases.items() if module == "oracle")
    oracle_s = tracer.inclusive["oracle.contains_subdivision"]
    values["oracle.nodes_per_s"] = oracle_nodes / oracle_s if oracle_s else 0.0
    values["k3e.steps"] = probe.k3e_steps
    values.update(probe.events)
    named = {m["name"] for m in spec["per_layer"]}
    values["cab.outcome.other"] = sum(
        n for key, n in probe.events.items() if key.startswith("cab.outcome.") and key not in named
    )
    # layers a workload never reaches report zero
    return {m["name"]: values.get(m["name"], 0) for m in spec["per_layer"]}


def cli_round_trip(cli, core, host, pattern_spec):
    """``find`` then ``check`` through ``cli.main`` on one host.

    Returns the two wall times, a failure note (empty on success) and
    the certificate text.
    """
    with tempfile.TemporaryDirectory(prefix=".cli-", dir=BENCH_DIR) as tmp:
        edges = pathlib.Path(tmp, "host.edges")
        cert = pathlib.Path(tmp, "cert.json")
        edges.write_text(core.write_edge_list(host))
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            found = cli.main(["find", "--pattern", pattern_spec, "--in", str(edges), "--out", str(cert)])
            find_s = time.perf_counter() - t0
            if found != 0:
                return find_s, 0.0, f"find exited {found}", ""
            t0 = time.perf_counter()
            checked = cli.main(["check", "--pattern", pattern_spec, "--in", str(edges), "--cert", str(cert)])
            check_s = time.perf_counter() - t0
        note = f"check exited {checked}" if checked != 0 else ""
        return find_s, check_s, note, cert.read_text()


if __name__ == "__main__":
    sys.exit(main())
