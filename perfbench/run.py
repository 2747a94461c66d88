"""Calibrated single-process benchmark of the experiment pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload rack-figs --seed 3 --seconds 30 --trace 0

Set-up (import, backend construction and a warm-up unit) is repeated
:data:`SETUP_REPS` times; then passes over the workload's units run
until ``--seconds`` is spent, pass ``i`` on pinned seed ``seed + i``.
Every unit is timed by the calibrated clock (``perfbench/calib.py``)
and its output digest is checked against ``perfbench/pins.json``.  The
last stdout line is one JSON object; with ``--trace 0`` it carries the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer ones.  Diagnostics go to stderr.

Other modes: ``--steadiness N`` repeats each workload N times in fresh
processes and prints each metric's median and quartile spread;
``--pin`` regenerates the pinned digests and sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
PINS_FILE = Path(__file__).resolve().parent / "pins.json"
WORK_DIR = Path(".perfbench")
DIAG_PREFIX = "perfbench-diagnostics "


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    against any other copy of the package."""
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, not {src}")


def _purge_program() -> None:
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def cpu_stat() -> tuple[int, int]:
    """(steal, total) jiffies from the first line of /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Harness:
    """One benchmark run's units, clock and output checks."""

    def __init__(self, workload: str, seed: int) -> None:
        from perfbench.calib import CalibratedClock
        from perfbench.workloads import PROBES, WORKLOADS, UnitRunner

        self.workload = workload
        self.base_seed = seed
        self.units = WORKLOADS[workload]
        self.runner = UnitRunner(0, WORK_DIR)
        pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.is_file() else {}
        self.pins = pins.get(workload, {})
        self.pin: dict = {}
        self.use_seed(seed)
        self.clock = CalibratedClock(PROBES[workload])
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        #: Reference seconds of every measured run of each unit.
        self.unit_ref_s: dict[str, list[float]] = {unit.name: [] for unit in self.units}

    def use_seed(self, seed: int) -> None:
        from perfbench.workloads import pinned_seed

        self.runner.seed = pinned_seed(seed)
        self.pin = self.pins.get(str(self.runner.seed), {})

    def mean_pinned(self, key: str) -> float:
        return statistics.mean(pin[key] for pin in self.pins.values()) if self.pins else 0.0

    def work_scale(self) -> float:
        """Pinned mean work over the current seed's pinned work."""
        work = self.pin.get("work", 0)
        return self.mean_pinned("work") / work if work else 0.0

    # -- units -------------------------------------------------------------------

    def run_unit(self, unit, wrap=None) -> tuple[float, float]:
        """Run one unit under the calibrated clock and check its output;
        returns ``(ref_s, wall_s)``."""
        from perfbench.workloads import result_digest

        call = self.runner.call if wrap is None else wrap
        self.attempted += 1
        # Free the previous unit's cyclic garbage outside the timed region.
        gc.collect()
        try:
            ref_s, wall_s, result = self.clock.measure(lambda: call(unit))
        except Exception as exc:  # a failed unit is counted, and the run goes on
            print(f"perfbench: unit {unit.name} raised {exc!r}", file=sys.stderr)
            self.failed += 1
            return 0.0, 0.0
        self.record(unit.name, result_digest(result.to_dict()))
        return ref_s, wall_s

    def record(self, unit_name: str, digest: str) -> None:
        """Compare a unit's digest with its pin; a missing or different
        pin counts the unit as failed."""
        self.digests[unit_name] = digest
        expected = self.pin.get("digests", {}).get(unit_name)
        if expected != digest:
            print(
                f"perfbench: seed {self.runner.seed} unit {unit_name} digest "
                f"{digest[:12]} != pinned {str(expected)[:12]}",
                file=sys.stderr,
            )
            self.failed += 1

    # -- phases ------------------------------------------------------------------

    def setup(self, root: Path) -> list[float]:
        """Import, backend construction and a warm-up unit, repeated from
        a clean module table; returns each repetition's reference seconds."""
        from perfbench.workloads import BACKEND

        self.use_seed(self.base_seed)
        times = []
        for _ in range(SETUP_REPS):
            _purge_program()

            def set_up():
                _import_program(root)
                from repro.backends import resolve_backend
                from repro.experiments import run_experiment  # noqa: F401

                resolve_backend(BACKEND[self.workload], seed=self.runner.seed)

            ref_s, _, _ = self.clock.measure(set_up)
            warm_ref_s, _ = self.run_unit(self.units[0])
            times.append(ref_s + warm_ref_s)
        return times

    def run_pass(self, offset: int, tracer=None):
        """One pass over every unit on pinned seed ``base + offset``;
        returns ``(ref_s, wall_s, totals)`` (``totals`` only when traced)."""
        from perfbench.layers import UNIT_TAG, PassTotals

        self.use_seed(self.base_seed + offset)
        totals = PassTotals() if tracer else None
        ref_total = wall_total = 0.0
        for index, unit in enumerate(self.units):
            wrap = None
            if tracer:
                tracer.unit_index = index
                wrap = tracer.timed(UNIT_TAG, unit.name, self.runner.call)
            ref_s, wall_s = self.run_unit(unit, wrap)
            self.unit_ref_s[unit.name].append(ref_s)
            if tracer:
                totals.add_unit(tracer, ref_s, wall_s)
            ref_total += ref_s
            wall_total += wall_s
        return ref_total, wall_total, totals

    def traced_pass(self, offset: int, tracer):
        """A pass with layer wrappers installed and a fresh telemetry
        registry; returns ``(ref_s, wall_s, layer values)``."""
        from perfbench.layers import layer_values
        from repro.telemetry import scoped_registry

        tracer.install()
        try:
            with scoped_registry() as registry:
                ref_s, wall_s, totals = self.run_pass(offset, tracer)
                counters = registry.snapshot()["counters"]
        finally:
            tracer.uninstall()
        return ref_s, wall_s, layer_values(totals, counters)


def run(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    try:
        _import_program(root)
    except ImportError as exc:
        return _fail(str(exc))
    harness = Harness(args.workload, args.seed)
    setup_times = harness.setup(root)

    tracer = None
    if args.trace:
        from perfbench.layers import LayerTracer

        tracer = LayerTracer()
    steal0, total0 = cpu_stat()
    cpu0 = time.process_time()
    start = time.perf_counter()
    # (ref_s, work scale) per untraced pass; (ref_s, layer values) per traced pass
    untraced: list[tuple[float, float]] = []
    traced: list[tuple[float, dict]] = []
    pass_walls: list[float] = []
    while True:
        pass_start = time.perf_counter()
        if tracer and len(untraced) > len(traced):
            # a traced pass reruns the seed of the untraced pass before it
            ref_s, wall_s, values = harness.traced_pass(len(traced), tracer)
            if values["samples.per_pass"] != harness.pin.get("samples_per_pass"):
                print("perfbench: traced sample count differs from its pin", file=sys.stderr)
                harness.failed += 1
            traced.append((ref_s, values))
        else:
            ref_s, wall_s, _ = harness.run_pass(len(untraced))
            untraced.append((ref_s, harness.work_scale()))
        pass_walls.append(wall_s)
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - pass_start
        if (not tracer or traced) and elapsed + last > seconds:
            break
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    steal1, total1 = cpu_stat()
    harness.runner.close()

    calib_ms = _median(harness.clock.probe_samples_s) * 1e3
    steal_frac = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "calib_ms": calib_ms,
        "steal_frac": steal_frac,
        "pass_ref_s": [ref for ref, _ in untraced + traced],
        "pass_wall_s": pass_walls,
        "setup_ref_s": setup_times,
        "unit_ref_s": harness.unit_ref_s,
        "cpu_s": cpu,
        "wall_s": wall,
    }
    print(DIAG_PREFIX + json.dumps(diagnostics), file=sys.stderr)

    if tracer:
        names = traced[0][1].keys()
        values = {name: _median([v[name] for _, v in traced]) for name in names}
        values.update(
            calib_ms=calib_ms,
            steal_frac=steal_frac,
            pass_wall_s=_median(pass_walls),
            trace_overhead=_median(
                [t_ref / u_ref for (t_ref, _), (u_ref, _) in zip(traced, untraced) if u_ref]
            ),
        )
        wanted = spec["per_layer"]
        out = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(out, [unit.name for unit in harness.units])
    else:
        wall_ref_s = _median([ref * scale for ref, scale in untraced])
        values = {
            "wall_ref_s": wall_ref_s,
            "samples_per_ref_s": (
                harness.mean_pinned("samples_per_pass") / wall_ref_s if wall_ref_s else 0.0
            ),
            "setup_s": _median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        return _fail(f"metric names differ from BENCHMARK.json: {sorted(mismatch)}")
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def pin(args, root: Path) -> int:
    """Record every pinned seed's unit digests and per-pass sample count
    from one traced pass, merging into ``pins.json``."""
    from perfbench.layers import LayerTracer
    from perfbench.workloads import N_PINNED_SEEDS, WORK_COUNT, WORKLOADS

    try:
        _import_program(root)
    except ImportError as exc:
        return _fail(str(exc))
    pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.is_file() else {}
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        for seed in range(N_PINNED_SEEDS):
            harness = Harness(workload, seed)
            try:
                _, _, values = harness.traced_pass(0, LayerTracer())
            finally:
                harness.runner.close()
            if len(harness.digests) != len(harness.units):
                return _fail(f"{workload} seed {seed}: a unit raised; nothing pinned")
            pins.setdefault(workload, {})[str(seed)] = {
                "digests": harness.digests,
                "samples_per_pass": values["samples.per_pass"],
                "work": values[WORK_COUNT[workload]],
            }
            print(f"pinned {workload} seed {seed}", file=sys.stderr)
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--pin", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        return _fail("run from the repository root (no BENCHMARK.json here)")
    if args.steadiness:
        from perfbench.steadiness import steadiness

        return steadiness(args, root)
    from perfbench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.pin:
        return pin(args, root)
    if args.workload is None:
        return _fail("--workload is required")
    return run(args, root)


if __name__ == "__main__":
    # One thread of numeric work: the benchmark measures one process on
    # one core, so BLAS thread pools must not add hidden parallelism.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    sys.exit(main())
