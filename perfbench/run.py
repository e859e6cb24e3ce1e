"""Benchmark of the debruijn toolkit: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload laws-fuzz --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10 --trace 1

One workload runs per process, from one thread, as one closed-loop
caller: each operation starts when the previous one has returned and
its output has been checked.  Set-up (import debruijn, build signatures,
theories and files, generate every input from ``--seed``) is repeated
(see ``SETUP_REPEATS``); ``setup_s`` is the median.  Operations are
timed one by one; checks run outside the timed region.

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs the workload's fixed
traced rounds twice, untraced and then traced (see ``tracing.py``), and
reports the per-layer metrics; the fixed work makes every count repeat
exactly for a seed.  Every per-layer metric is printed by every
workload; one a workload does not exercise reads 0.

Output: one line per metric, a JSON row with the run's context, and as
the last line a JSON object with ``correct``, ``attempted``, ``failed``
and the metrics that BENCHMARK.json lists for this mode.  ``--all`` runs
every workload in a fresh process and prints the metrics of each.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_REPEATS times, and again while all set-ups so
# far took under SETUP_BUDGET_S, up to SETUP_MAX_REPEATS: a set-up of a few
# tens of ms needs more repeats for a steady median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
# On a shared virtual machine the CPU changes speed by up to 2x for
# stretches of 0.2-2 s (load on a sibling hardware thread, seen neither as
# steal time nor in CPU time).  So a short reference loop, the probe, runs
# at least every PROBE_EVERY_S of busy time: between operations, and from
# a timer signal inside a longer one.  Each stretch of busy time is scaled
# by PROBE_REF_S over the mean of the probes at its two ends, so times read
# as seconds at the speed at which the probe takes PROBE_REF_S (its
# uncontended time on a 2-vCPU x86-64 VM with CPython 3.11).  Unscaled
# figures are reported beside them.
PROBE_LOOPS = 10_000
PROBE_REF_S = 0.00086
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Time a fixed loop of interpreter work: dispatch, ints, tuples, a dict."""
    t0 = time.perf_counter()
    acc = 0
    d = {}
    for j in range(PROBE_LOOPS):
        acc += j
        d[j & 31] = (j, acc)
    return time.perf_counter() - t0


class Timed:
    """Raw and speed-scaled seconds of one timed call."""

    __slots__ = ("raw", "scaled")

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0


class ScaledClock:
    """Times calls in scaled seconds (see PROBE_REF_S).  A stretch of busy
    time is scaled once the probe that closes it has run, so a result is
    final only when the clock is closed.  Use as a context manager: it
    owns SIGALRM while open."""

    def __init__(self):
        self.pending: list[tuple[Timed, float]] = []
        self.since_probe = 0.0
        self._timed = None
        self._start = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.last_probe = probe()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.pending:
            self._probe_now()

    def _probe_now(self) -> None:
        p = probe()
        scale = PROBE_REF_S / ((self.last_probe + p) / 2)
        self.last_probe = p
        for rec, raw in self.pending:
            rec.scaled += raw * scale
        self.pending.clear()
        self.since_probe = 0.0

    def _close_stretch(self, rec: Timed, now: float) -> None:
        raw = now - self._start
        rec.raw += raw
        self.pending.append((rec, raw))
        self.since_probe += raw

    def _tick(self, signum, frame) -> None:
        # inside a timed call: close the stretch, probe, open the next one
        rec, self._timed = self._timed, None  # a tick meanwhile is ignored
        if rec is None:
            return
        self._close_stretch(rec, time.perf_counter())
        self._probe_now()
        self._start = time.perf_counter()
        self._timed = rec

    def call(self, fn):
        """Run ``fn()``; returns (result or None, exception or None, Timed)."""
        rec = Timed()
        result = error = None
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self._start = time.perf_counter()
        self._timed = rec
        try:
            result = fn()
        except Exception as e:  # reported by the caller, never fatal
            error = e
        finally:
            self._timed = None
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._close_stretch(rec, end)
        if self.since_probe >= PROBE_EVERY_S:
            self._probe_now()
        return result, error, rec


def fresh_modules(workloads):
    """Import debruijn anew, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "debruijn" or m.startswith("debruijn.")]:
        del sys.modules[name]
    for m in workloads.MODULES:
        importlib.import_module(f"debruijn.{m}")
    return workloads.modules(sys.modules)


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- measuring ---------------------------------------------------------


class Phase:
    """Outcome of running whole rounds: per-operation times and failures.
    Times are scaled to the reference speed (see PROBE_REF_S)."""

    def __init__(self):
        self.timed: list[tuple[str, Timed, int, bool]] = []  # (label, time, first span, ok)
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.failures: Counter = Counter()  # "label: reason" -> count
        self.completed: Counter = Counter()  # label -> runs that succeeded
        self.sizes: dict[str, int] = {}
        self.steps: dict[str, int] = {}
        # label -> scaled seconds of the runs that completed, set by finish()
        self.latencies: dict[str, list[float]] = {}

    def finish(self, tracer=None) -> None:
        """Collect the scaled times; scale the spans of each traced call."""
        for i, (label, rec, span0, ok) in enumerate(self.timed):
            if ok:
                self.latencies.setdefault(label, []).append(rec.scaled)
            if tracer is not None and rec.raw > 0:
                end = self.timed[i + 1][2] if i + 1 < len(self.timed) else len(tracer.spans)
                tracer.scale(span0, end, rec.scaled / rec.raw)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def raw_busy_s(self) -> float:
        return sum(rec.raw for _, rec, _, _ in self.timed)

    @property
    def busy_s(self) -> float:
        return sum(rec.scaled for _, rec, _, _ in self.timed)

    def runs(self, label: str) -> int:
        return len(self.latencies.get(label, ()))

    def all_latencies(self) -> list[float]:
        return [x for xs in self.latencies.values() for x in xs]

    def rates(self) -> tuple[float, float]:
        """(ops_per_s, steps_per_s): operations completed and beta steps
        they contracted, per second of their summed latencies.  A run
        that raised or failed its check counts in neither."""
        busy = sum(map(sum, self.latencies.values()))
        steps = sum(len(xs) * self.steps[k] for k, xs in self.latencies.items())
        return _ratio(sum(self.completed.values()), busy), _ratio(steps, busy)


def run_rounds(rounds, *, seconds=0.0, min_rounds=1, n_rounds=None, tracer=None) -> Phase:
    """Run whole rounds, cycling through ``rounds``: ``n_rounds`` of them,
    or as many as fit in ``seconds`` of wall time, at least ``min_rounds``."""
    ph = Phase()
    with ScaledClock() as clock:
        _run(rounds, ph, clock, seconds, min_rounds, n_rounds, tracer)
    ph.finish(tracer)
    return ph


def _run(rounds, ph, clock, seconds, min_rounds, n_rounds, tracer) -> None:
    start = time.perf_counter()
    done = 0
    while True:
        for op in rounds[done % len(rounds)]:
            span0 = 0
            if tracer is not None:
                span0 = len(tracer.spans)
                tracer.tag = op.label
                tracer.on = True
            out, error, rec = clock.call(op.fn)
            if tracer is not None:
                tracer.on = False
            ph.attempted += 1
            ph.sizes[op.label] = op.size
            ph.steps[op.label] = op.steps
            if error is not None:
                ph.timed.append((op.label, rec, span0, False))
                ph.raised += 1
                ph.failures[f"{op.label}: {type(error).__name__}"] += 1
                del error
                continue
            try:
                good = bool(op.check(out))
            except Exception as e:
                good = False
                ph.failures[f"{op.label}: check raised {type(e).__name__}"] += 1
            else:
                if not good:
                    ph.failures[f"{op.label}: wrong result"] += 1
            del out
            ph.timed.append((op.label, rec, span0, good))
            if good:
                ph.completed[op.label] += 1
            else:
                ph.wrong += 1
        done += 1
        if n_rounds is not None:
            if done >= n_rounds:
                break
        elif done >= min_rounds:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                break


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile, up to the 99th, with at least ten samples
    beyond it (nearest rank), as (value_s, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    rank = min(math.ceil(0.99 * n), n - 10)
    return xs[rank - 1], 100.0 * rank / n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w, ph: Phase, setup_s: float, setup_raw_s: float) -> dict:
    ops_per_s, steps_per_s = ph.rates()
    m = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops_per_s, "1/s"),
    }
    if not w.repeated and ph.latencies:  # a latency distribution needs many distinct operations
        m["op_p50_ms"] = metric(1e3 * statistics.median(ph.all_latencies()), "ms")
        value, pct = tail_latency(ph.all_latencies())
        m["op_p99_ms"] = metric(1e3 * value, "ms")
        m["op_p99_ms"]["percentile"] = round(pct, 3)
        m["op_p99_ms"]["samples"] = ph.attempted
    if steps_per_s:
        m["steps_per_s"] = metric(steps_per_s, "1/s")
    m["error_rate"] = metric(ph.failed / ph.attempted, "share")
    m["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    # unscaled wall-clock figures, for reference
    m["raw.setup_s"] = metric(setup_raw_s, "s")
    m["raw.busy_s"] = metric(ph.raw_busy_s, "s")
    m["raw.speed_scale"] = metric(ph.busy_s / ph.raw_busy_s, "ratio")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- per-layer metrics -------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, traced: Phase, untraced: Phase) -> dict:
    """Every per-layer metric from one traced phase; a metric whose layer
    or operation the workload does not exercise reads 0."""
    import terms

    agg = tracer.aggregate()
    counts = tracer.counts

    def spans(name, tags=None, key="calls"):
        return sum(
            a[key] for (tag, n), a in agg.items()
            if n == name and (tags is None or tag in tags)
        )

    def count(name, parent=None, tags=None):
        return sum(
            c for (tag, n, p), c in counts.items()
            if n == name and (parent is None or p == parent)
            and (tags is None or tag in tags)
        )

    def per_node(name, label):
        nodes = traced.runs(label) * traced.sizes.get(label, 0)
        return _ratio(1e9 * spans(name, {label}, "total_s"), nodes)

    def per_node_ok(name):
        objs = [o for (tag, n), a in agg.items() if n == name for o in a["objs"]]
        ok_s = sum(a["ok_s"] for (tag, n), a in agg.items() if n == name)
        return _ratio(1e9 * ok_s, sum(terms.node_count(o) for o in objs))

    mixed = {"c1-mixed", "c2-mixed"}
    subst_calls = spans("subst.subst")
    tsubst_calls = spans("typed.tsubst")
    # one contraction evaluates the rule's right side once, from normalize
    steps = sum(
        1 for s in tracer.spans
        if s[0] == "equational.eval_metaterm" and s[4] == "equational.normalize"
    )
    match_calls = count("equational.match_pattern")
    m = {
        "term.map_free_vars.calls": metric(count("term.map_free_vars"), "count"),
        "term.map_free_vars.calls_per_subst": metric(
            _ratio(count("term.map_free_vars", parent="subst.subst"), subst_calls), "count"),
        "term.map_free_vars.calls_per_subst.mixed": metric(
            _ratio(count("term.map_free_vars", "subst.subst", mixed),
                   spans("subst.subst", mixed)), "count"),
        "term.eq.self_s": metric(spans("term.eq", key="self_s"), "s"),
        "term.eq.failed": metric(spans("term.eq", key="failed"), "count"),
        "term.hash.failed": metric(spans("term.hash", key="failed"), "count"),
        "subst.subst.calls": metric(subst_calls, "count"),
        "subst.subst.self_s": metric(spans("subst.subst", key="self_s"), "s"),
        "subst.compose.self_s": metric(spans("subst.compose", key="self_s"), "s"),
        "subst.lift_n.self_s": metric(spans("subst.lift_n", key="self_s"), "s"),
        "subst.rename.calls_per_subst": metric(
            _ratio(count("subst.rename", parent="subst.subst"), subst_calls), "count"),
        "subst.rename.calls_per_subst.mixed": metric(
            _ratio(count("subst.rename", "subst.subst", mixed),
                   spans("subst.subst", mixed)), "count"),
        "signature.instantiate_schema.calls_per_tsubst": metric(
            _ratio(count("signature.instantiate_schema"), tsubst_calls), "count"),
        "typed.tsubst.calls": metric(tsubst_calls, "count"),
        "typed.tsubst.self_s": metric(spans("typed.tsubst", key="self_s"), "s"),
        "typed.tcompose.self_s": metric(spans("typed.tcompose", key="self_s"), "s"),
        "typed.tlift_gamma.self_s": metric(spans("typed.tlift_gamma", key="self_s"), "s"),
        "typed.typecheck.self_s": metric(spans("typed.typecheck", key="self_s"), "s"),
        "model.to_named.self_s": metric(spans("model.to_named", key="self_s"), "s"),
        "model.alpha_eq.self_s": metric(spans("model.alpha_eq", key="self_s"), "s"),
        "model.check_morphism.self_s": metric(
            spans("model.check_morphism", key="self_s"), "s"),
        "model.term_model.calls_per_step": metric(
            _ratio(count("model.term_model"), steps), "count"),
        "equational.normalize.steps": metric(steps, "count"),
        "equational.match_pattern.calls_per_step": metric(_ratio(match_calls, steps), "count"),
        "equational.match_pattern.hit_ratio": metric(
            _ratio(count("equational.match_pattern.hit"), match_calls), "share"),
        "equational.eval_metaterm.self_s": metric(
            spans("equational.eval_metaterm", key="self_s"), "s"),
        "surface.parse_term.ns_per_node": metric(per_node_ok("surface.parse_term"), "ns"),
        "surface.print_term.ns_per_node": metric(per_node_ok("surface.print_term"), "ns"),
        "surface.parse_term.failed": metric(spans("surface.parse_term", key="failed"), "count"),
        "surface.print_term.failed": metric(spans("surface.print_term", key="failed"), "count"),
        "surface.parse_signature_file.self_s": metric(
            spans("surface.parse_signature_file", key="self_s"), "s"),
        "surface.parse_theory_file.self_s": metric(
            spans("surface.parse_theory_file", key="self_s"), "s"),
        "cli.build_parser.self_s": metric(spans("cli.build_parser", key="self_s"), "s"),
        "cli.main.self_s": metric(spans("cli.main", key="self_s"), "s"),
        "gen.random_term.self_s": metric(spans("gen.random_term", key="self_s"), "s"),
        "trace.overhead": metric(
            _ratio(traced.rates()[0], untraced.rates()[0]), "ratio"),
    }
    for d in ("d1k", "d10k"):
        m[f"term.wellformed.ns_per_node.{d}"] = metric(
            per_node("term.wellformed", f"wellformed@{d}"), "ns")
    for d in ("d10k", "d100k"):
        m[f"term.support.ns_per_node.{d}"] = metric(
            per_node("term.support", f"support@{d}"), "ns")
    for d in ("d1k", "d10k", "d100k"):
        for fn in ("subst", "rename"):
            m[f"subst.{fn}.ns_per_node.{d}"] = metric(
                per_node(f"subst.{fn}", f"{fn}@{d}"), "ns")
    for d in ("d50", "d100", "d200"):
        m[f"model.to_named.ns_per_node.{d}"] = metric(
            per_node("model.to_named", f"to_named@{d}"), "ns")
    for k in (25, 50, 100, 150):
        label = f"k{k}"
        m[f"equational.normalize.ns_per_step.{label}"] = metric(
            _ratio(1e9 * spans("equational.normalize", {label}, "total_s"),
                   traced.runs(label) * traced.steps.get(label, 0)), "ns")
    return m


# --- one workload ------------------------------------------------------


def run_workload(args) -> int:
    if not (ROOT / "src" / "debruijn" / "__init__.py").is_file():
        print(f"perfbench: no debruijn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    workdir = ROOT / f".perfbench-work-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = []
        rounds = None
        with ScaledClock() as clock:
            while len(setups) < SETUP_REPEATS or (
                len(setups) < SETUP_MAX_REPEATS
                and sum(rec.raw for rec in setups) < SETUP_BUDGET_S
            ):
                rounds = None
                gc.collect()
                rounds, error, rec = clock.call(
                    lambda: w.setup(fresh_modules(workloads), args.seed, workdir)
                )
                if error is not None:
                    raise error
                setups.append(rec)
        setup_times = [rec.scaled for rec in setups]
        setup_raw = [rec.raw for rec in setups]
        setup_s = statistics.median(setup_times)
        # the input pool lives for the whole run: keep it out of GC scans
        gc.collect()
        gc.freeze()

        if args.trace:
            untraced = run_rounds(rounds, n_rounds=w.trace_rounds)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_rounds(rounds, n_rounds=w.trace_rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, traced, untraced)
            phases = (untraced, traced)
        else:
            ph = run_rounds(rounds, seconds=args.seconds, min_rounds=w.min_rounds)
            metrics = end_to_end(w, ph, setup_s, statistics.median(setup_raw))
            phases = (ph,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = Counter()
    for p in phases:
        failures.update(p.failures)
    row = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_sha": git_sha(),
        "setup_repeats": len(setup_times),
        "attempted": attempted,
        "failed": failed,
        "failures": dict(sorted(failures.items())),
        "metrics": metrics,
        "operations": {
            label: {"runs": len(xs), "median_ms": round(1e3 * statistics.median(xs), 4)}
            for label, xs in sorted(phases[-1].latencies.items())
        },
    }
    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(row))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [x["name"] for x in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    # only deep-terms' known recursion-limit failures are allowed
    unexpected = sorted(set(failures) - w.expected_failures)
    if unexpected:
        print(f"perfbench: unexpected failures: {unexpected}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; print its metrics by name."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        rows = [ln for ln in proc.stdout.splitlines() if ln.startswith('{"workload"')]
        if proc.returncode != 0 or not rows:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        row = json.loads(rows[-1])
        print(f"== {name}  seed={row['seed']} attempted={row['attempted']} "
              f"failed={row['failed']} git={row['git_sha'][:12]} loadavg={row['loadavg']}")
        for metric_name, m in row["metrics"].items():
            print(f"   {metric_name:48s} {m['value']:>14.6g} {m['unit']}")
        for what, n in row["failures"].items():
            print(f"   failure x{n}: {what}")
    return status


def main(argv=None) -> int:
    sys.setrecursionlimit(1000)  # the interpreter default, stated: depth limits are measured
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["laws-fuzz", "church-norm", "cli-mix", "deep-terms"])
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
