"""The repository benchmark: end-to-end host cost of the simulator's
heaviest jobs, and a traced run that splits it by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig34_histogram --seed 1 \\
        --seconds 32 --trace 0
    python3 perfbench/run.py --record-goldens   # after a declared model change

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``fig34_histogram``, ``fig5_interference`` and ``dse_campaign``.

``--trace 0`` reports the end-to-end metrics.  Host seconds on a
shared host drift by 20-70% over minutes, which no statistic taken
inside one run removes, so the two timed metrics are reported at a
*reference speed* (see ``perfbench/reference.py``): a fixed
pure-Python kernel runs between the timed units (between the points of
the figure workloads, between the batches of ``dse_campaign``; once
per quarter second of measured work, at least once per gap) and each
pass's host seconds are scaled by ``REFERENCE_S`` over the kernel's
mean time in that pass.  ``wall_s`` is the median, over as many passes
as fit in ``--seconds`` (at least three), of a pass's timed units at
reference speed; the host seconds (median pass, fastest pass, sum of
each unit's fastest) are printed beside it.  ``setup_s`` is the import
time plus the median of three repeated set-ups (inputs, one warm-up
point, and the cache pre-fill of ``dse_campaign``), at the reference
speed of the kernel runs right after the imports and between the
set-ups.  ``peak_rss_mb`` is the process's peak resident memory;
``paper_rel_err`` compares throughput ratios with the paper's
reference tables.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the fastest traced pass (see
``perfbench/layers.py``), plus ``trace_overhead_s``, the fastest traced
minus the fastest untraced pass time.  It checks that the layers' self
times add up exactly to the traced wall time, that repeated traced
passes give identical counts, and that the counted interconnect calls
equal the simulated message count.  The spans go to
``.bench_build/perfbench/trace-<workload>.json`` as a Chrome trace.

Every point's simulated output is compared exactly with
``perfbench/goldens.json``; a point that raises, fails its workload's
verify or differs from its golden counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (import time counts into setup_s)
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 3
SETUP_REPEATS = 3
#: Reference kernel calls that gauge the host speed of the imports.
IMPORT_GAUGE_CALLS = 10


def _import_program():
    """Import the simulator from this checkout's ``src/``."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    from perfbench import layers, reference, workloads
    return layers, reference, workloads


class Tally:
    """Points attempted and failed, with the first reasons."""

    def __init__(self, goldens: dict, check) -> None:
        self.goldens = goldens
        self._check = check
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def add(self, outputs: dict) -> None:
        bad = self._check(outputs, self.goldens)
        self.attempted += len(outputs)
        self.failed += len(bad)
        for label, reason in bad.items():
            self.reasons.setdefault(label, reason)


def _timed_pass(workload):
    workload.prepare()
    gc.collect()
    start = time.perf_counter()
    raw = workload.run_pass()
    return raw, time.perf_counter() - start


def measure(workload, seconds: float, tally: Tally, reference) -> tuple:
    """Untraced passes for ``seconds``, the reference kernel run
    between their timed units.

    Returns ``(per pass: (host seconds, reference-speed seconds),
    fastest host time per unit, first outputs)``.
    """
    passes, fastest, lengths = [], {}, []
    first = None
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        workload.prepare()
        gc.collect()
        gauge = reference.Gauge()
        raw = workload.run_pass(gauge.sample)
        units = workload.unit_seconds(raw)
        host = sum(units.values())
        passes.append((host, host * gauge.scale()))
        for unit, spent in units.items():
            fastest[unit] = min(spent, fastest.get(unit, spent))
        outputs = workload.outputs(raw)
        tally.add(outputs)
        first = first or outputs
        lengths.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                elapsed + statistics.median(lengths) > seconds:
            return passes, fastest, first


def measure_traced(workload, seconds: float, tally: Tally, layers) -> tuple:
    """Alternate untraced and traced passes for ``seconds``.

    Returns ``(untraced walls, [(traced wall, tracer)], problems)``.
    """
    untraced, traced, problems = [], [], []
    start = time.perf_counter()
    while True:
        raw, wall = _timed_pass(workload)
        untraced.append(wall)
        tally.add(workload.outputs(raw))
        workload.prepare()
        gc.collect()
        tracer = layers.LayerTracer()
        with tracer.installed():
            begin = time.perf_counter()
            raw = tracer.run_root(workload.run_pass)
            wall = time.perf_counter() - begin
        traced.append((wall, tracer))
        tally.add(workload.outputs(raw))
        if not tracer.closes():
            problems.append("layer self times do not add up to the "
                            "traced wall time")
        metrics = tracer.metrics()
        if metrics["interconnect.messages"] != tracer.sim["messages"]:
            problems.append(
                f"counted {metrics['interconnect.messages']} network "
                f"sends, simulated {tracer.sim['messages']} messages")
        if tracer.counts() != traced[0][1].counts():
            problems.append("counts differ between traced passes")
        elapsed = time.perf_counter() - start
        pair = statistics.median(untraced) + statistics.median(
            [w for w, _t in traced])
        if elapsed + pair > seconds:
            return untraced, traced, problems


def _result_line(spec: list, values: dict, tally: Tally,
                 problems: list) -> str:
    return json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in spec},
    })


def _print_table(rows: list) -> None:
    width = max(len(name) for name, _v, _u, _note in rows)
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {text:>14} {unit:<13} {note}")


def run(args, layers, reference, workloads) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        bench = json.load(stream)
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally(workloads.load_goldens().get(args.workload, {}),
                  workloads.check)
    try:
        import_s = time.perf_counter() - _START
        reference.kernel()  # its first call runs unspecialised bytecode
        gauge = reference.Gauge()
        gauge.sample(IMPORT_GAUGE_CALLS)
        setups = []
        for _ in range(SETUP_REPEATS):
            gauge.sample()
            gc.collect()  # the last set-up's garbage, as before each pass
            begin = time.perf_counter()
            warm_up = workload.setup()
            setups.append(time.perf_counter() - begin)
        gauge.sample()
        problems = [f"warm-up {label}: {reason}" for label, reason in
                    workloads.check(warm_up, tally.goldens).items()]
        setup_host = import_s + statistics.median(setups)
        setup_s = setup_host * gauge.scale()
        print(f"perfbench {args.workload} seed={args.seed} "
              f"trace={args.trace}")
        if args.trace:
            untraced, traced, found = measure_traced(
                workload, args.seconds, tally, layers)
            problems += found
            wall, tracer = min(traced, key=lambda pair: pair[0])
            values = tracer.metrics()
            values["trace_overhead_s"] = wall - min(untraced)
            spec = bench["per_layer"]
            tracer.export_chrome(
                os.path.join(out_dir, f"trace-{args.workload}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "metrics": values})
            if tracer.missing:
                print("  entry points not found (counted in their "
                      "caller): " + ", ".join(tracer.missing),
                      file=sys.stderr)
            with open(os.path.join(ROOT, "perfbench",
                                   "baseline.json")) as stream:
                moves = json.load(stream)["layer_moves"]
            rows = [(m["name"], values[m["name"]], m["unit"],
                     moves.get(m["name"], "")) for m in spec]
            print(f"  {len(untraced)} untraced and {len(traced)} traced "
                  f"passes; layer self times close: "
                  f"{all(t.closes() for _w, t in traced)}")
        else:
            passes, fastest, outputs = measure(workload, args.seconds,
                                               tally, reference)
            hosts = [host for host, _ref in passes]
            values = {
                "wall_s": statistics.median(ref for _host, ref in passes),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                "paper_rel_err": workload.paper_rel_err(outputs),
            }
            spec = bench["end_to_end"]
            notes = {
                "wall_s": f"median of {len(passes)} passes at reference "
                          f"speed; host s: median "
                          f"{statistics.median(hosts):.4f}, fastest "
                          f"{min(hosts):.4f}, {len(fastest)} units' "
                          f"fastest {sum(fastest.values()):.4f}",
                "setup_s": f"at reference speed; host s: imports "
                           f"{import_s:.3f} + median of {SETUP_REPEATS} "
                           f"set-ups {setup_host - import_s:.3f}",
                "paper_rel_err": "mean |measured - paper| / paper",
            }
            rows = [(m["name"], values[m["name"]], m["unit"],
                     notes.get(m["name"], "")) for m in spec]
        rows.append(("error_rate",
                     tally.failed / tally.attempted if tally.attempted
                     else 0.0, "ratio",
                     f"{tally.failed} of {tally.attempted} points failed"))
        _print_table(rows)
        for label, reason in list(tally.reasons.items())[:10]:
            print(f"  FAILED {label}: {reason}", file=sys.stderr)
        for problem in problems:
            print(f"  CHECK FAILED: {problem}", file=sys.stderr)
        print(_result_line(spec, values, tally, problems))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def record_goldens(workloads) -> int:
    """Rewrite ``goldens.json`` from one pass of every workload."""
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    goldens = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=name + "-", dir=out_dir)
        workload = cls(0, workdir)
        try:
            workload.setup()
            workload.prepare()
            outputs = workload.outputs(workload.run_pass())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        errors = {k: v for k, v in outputs.items() if isinstance(v, str)}
        if errors:
            print(f"{name}: {len(errors)} points failed, goldens not "
                  f"written: {next(iter(errors.values()))}",
                  file=sys.stderr)
            return 1
        goldens[name] = outputs
        print(f"{name}: {len(outputs)} points")
    with open(workloads.GOLDENS, "w") as stream:
        json.dump(goldens, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("fig34_histogram", "fig5_interference",
                                 "dse_campaign"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help="rewrite perfbench/goldens.json and exit")
    args = parser.parse_args(argv)
    if not args.record_goldens and args.workload is None:
        parser.error("--workload is required")
    try:
        layers, reference, workloads = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}",
              file=sys.stderr)
        return 2
    if args.record_goldens:
        return record_goldens(workloads)
    return run(args, layers, reference, workloads)


if __name__ == "__main__":
    sys.exit(main())
