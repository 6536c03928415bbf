"""tricodec benchmark: one closed-loop client on one workload.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 30 --trace 0

Run from the repository root. The codec is imported from ``src/``; the
seeded inputs are written under ``.perfbench_work/`` and removed at the
end. An untraced run (``--trace 0``) reports the end-to-end metrics of
``BENCHMARK.json``; a traced run (``--trace 1``) wraps every layer and
reports the per-layer metrics. Each run writes its full result (sample
counts, tail percentiles, losses, environment) to ``.perfbench_out/`` and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
INPUTS_TIMEOUT_S = 300

# per-layer metrics reported per call rather than per operation: these
# layers read one input file each and run outside the training step
PER_CALL = ("signal.load_wav", "signal.resample", "checkpoint.load")

# Median Calibrator time on the reference machine (2 x86_64 vCPUs, OpenBLAS
# 0.3.31 with 2 threads). Reported times are scaled by REFERENCE_CAL_S over
# the run's own Calibrator median, i.e. stated at the reference machine's
# usual speed; the result file keeps the raw times.
REFERENCE_CAL_S = 0.05
SCALED = ("setup_s", "op_ms.p50", "encode_ms.p50", "decode_ms.p50", "rtf")


def blas_threads() -> int:
    """Pin the BLAS pool to the CPUs this process may use; must run before
    numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def runtime_blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unavailable."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(threads: int, params: dict) -> dict:
    import numpy
    import scipy

    from tricodec.model import Codec, CodecConfig

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    params = dict(params)
    params.setdefault("toy", sum(p.data.size for p in Codec(CodecConfig.toy()).params.values()))
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas_threads_runtime": runtime_blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "params": params,
    }


# ---------------------------------------------------------------------------
# metrics


def phase_samples(spans) -> tuple:
    """Encode samples (encode_frames + quantize of one clip) and decode
    samples (decode_frames), in seconds, from spans inside operations."""
    frames, quant, dec = {}, {}, []
    for s in spans:
        if s.op is None:
            continue
        if s.name == "model.encode_frames":
            frames.setdefault(s.op, []).append(s.duration)
        elif s.name == "model.quantize":
            quant.setdefault(s.op, []).append(s.duration)
        elif s.name == "model.decode_frames":
            dec.append(s.duration)
    enc = [a + b for op in frames for a, b in zip(frames[op], quant.get(op, []))]
    return enc, dec


def end_to_end(rec, tracer, import_s: float, speed: float) -> tuple:
    """(metric values at reference speed, details with the raw values)."""
    spans = tracer.finished_spans()
    op_s = [s.duration for s in tracer.op_spans()]
    enc, dec = phase_samples(spans)
    raw = {
        "setup_s": import_s + statistics.median(rec.setups),
        "op_ms.p50": 1e3 * statistics.median(op_s),
        "encode_ms.p50": 1e3 * statistics.median(enc),
        "decode_ms.p50": 1e3 * statistics.median(dec),
        "rtf": sum(op_s) / sum(rec.op_audio_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values = {k: v * speed if k in SCALED else v for k, v in raw.items()}
    ms = lambda xs: [1e3 * x for x in xs]  # noqa: E731
    details = {
        "raw": raw,
        "speed_factor": speed,

        "import_s": import_s,
        "setup_samples_s": rec.setups,
        "op_samples_ms": ms(op_s),
        "op_ms": stats.summarize(ms(op_s)),
        "encode_ms": stats.summarize(ms(enc)),
        "decode_ms": stats.summarize(ms(dec)),
        "audio_s": sum(rec.op_audio_s),
        "error_rate": rec.failed / rec.attempted,
        "distinct_ids_per_clip": {
            "n": len(rec.distinct_ids),
            "mean": statistics.fmean(rec.distinct_ids) if rec.distinct_ids else None,
        },
    }
    if rec.stage_s:
        details["stage_s"] = stats.summarize(rec.stage_s)
        details["train_audio_s_per_s"] = sum(rec.op_audio_s) / sum(rec.stage_s)
        details["final_loss"] = rec.final_loss
        details["final_recon"] = rec.final_recon
    return values, details


def per_layer(names, rec, tracer, speed: float) -> dict:
    """Per-layer values: a ``<span>_ms`` metric is the span's self time per
    operation (per call for ``PER_CALL`` spans), ``op.other_ms`` the
    operation's time outside every wrapped layer; times at reference speed."""
    spans = tracer.finished_spans()
    per_op = stats.self_time_per_op(spans, tracer.n_ops)
    calls: dict = {}
    for s, t in zip(spans, stats.self_times(spans)):
        if s.name in PER_CALL:
            calls.setdefault(s.name, []).append(t)
    counts = tracer.counts_per_op()
    ms = 1e3 * speed
    special = {
        "op.other_ms": ms * per_op.get("op", 0.0),
        "autodiff.graph_nodes": counts.get("autodiff.graph_nodes", 0.0),
        "quantizer.rows_projected": counts.get("quantizer.rows_projected", 0.0),
        "quantizer.distinct_ids": statistics.fmean(rec.distinct_ids) if rec.distinct_ids else 0.0,
        "model.encode_peak_alloc_mb": rec.encode_peak_alloc_mb,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.endswith("_ms"):
            span = name[: -len("_ms")]
            if span in PER_CALL:
                values[name] = ms * statistics.fmean(calls[span]) if span in calls else 0.0
            else:
                values[name] = ms * per_op.get(span, 0.0)
        else:
            raise KeyError(f"no rule computes per-layer metric '{name}'")
    return values


def tracing_overhead(workload: str, seed: int, traced_values: dict):
    """Traced minus untraced op_ms.p50 and rtf, when an untraced result for
    the same workload and seed exists in the output directory."""
    untraced = OUT / f"{workload}_seed{seed}_trace0.json"
    if not untraced.is_file():
        return None
    base = json.loads(untraced.read_text())["metrics"]
    out = {}
    for key in ("op_ms.p50", "rtf"):
        b, t = base[key]["value"], traced_values[key]
        out[key] = {"untraced": b, "traced": t, "overhead": t - b, "overhead_share": (t - b) / b}
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description="tricodec benchmark (one workload, one client)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tricodec" / "__init__.py").is_file():
        print(f"error: {SRC / 'tricodec'} not found; run from a tricodec checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = blas_threads()
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    import workloads

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}' (one of {sorted(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)

    work = WORK / f"{w.name}-{os.getpid()}"
    tracer = Tracer()
    rec = workloads.Record()
    calibrator = workloads.Calibrator(tracer.clock)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", w.name,
             "--seed", str(args.seed), "--out", str(work / "inputs")],
            check=True, timeout=INPUTS_TIMEOUT_S,
        )
        workloads.install(tracer, w, rec, traced, calibrator)
        workloads.RUNNERS[w.kind](w, args.seed, args.seconds, work / "inputs", work, tracer, rec,
                                  traced, calibrator)
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    spans = tracer.finished_spans()
    errors = stats.nesting_errors(spans)
    if errors:
        print("error: malformed span tree: " + "; ".join(errors[:5]), file=sys.stderr)
        return 1
    try:
        # < 1 when the machine ran slower than the reference during this run
        speed = REFERENCE_CAL_S / statistics.median(calibrator.samples)
        e2e_values, details = end_to_end(rec, tracer, import_s, speed)
    except (ValueError, ZeroDivisionError) as e:  # no sample of some kind to report
        print(f"error: no operation completed ({e}): {rec.errors}", file=sys.stderr)
        return 1
    group = "per_layer" if traced else "end_to_end"
    if traced:
        values = per_layer([m["name"] for m in spec[group]], rec, tracer, speed)
    else:
        values = e2e_values
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    correct = rec.failed == 0
    result = {"correct": correct, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}

    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **result,
        "end_to_end_in_this_run": e2e_values,
        "details": details,
        "errors": rec.errors,
        "calibration_s": stats.summarize(calibrator.samples),
        "environment": environment(threads, rec.params),
    }
    if traced:
        report["tracing_overhead"] = tracing_overhead(w.name, args.seed, e2e_values)
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if traced:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    print_report(report, spec, group, OUT / f"{stem}.json")
    print(json.dumps(result))
    return 0


def print_report(report: dict, spec: dict, group: str, path: Path) -> None:
    d = report["details"]
    print(f"perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']:g} "
          f"trace={report['trace']}")
    for m in spec[group]:
        v = report["metrics"][m["name"]]
        print(f"  {m['name']:<34} {v['value']:>14.6g} {v['unit']}")
    cal = report["calibration_s"]
    print(f"  speed factor {d['speed_factor']:.4f} (calibration median {cal['p50']:.4f} s, "
          f"n={cal['n']}); raw "
          + ", ".join(f"{k} {v:.6g}" for k, v in d["raw"].items()))
    print(f"  samples: ops {d['op_ms']['n']}, encodes {d['encode_ms']['n']}, decodes "
          f"{d['decode_ms']['n']}, setups {len(d['setup_samples_s'])}")
    for key in ("op_ms", "encode_ms", "decode_ms"):  # raw
        tails = {k: round(v, 3) for k, v in d[key].items() if k not in ("n", "p50")}
        print(f"  {key}: p50 {d[key]['p50']:.3f}" + (f", {tails}" if tails else
                                                      ", no tail percentile (< 10 samples beyond p90)"))
    if "stage_s" in d:
        print(f"  stage_s p50 {d['stage_s']['p50']:.3f} (n={d['stage_s']['n']}), "
              f"train_audio_s_per_s {d['train_audio_s_per_s']:.4f}, final loss {d['final_loss']}")
    print(f"  error_rate {d['error_rate']:.4g} ({report['failed']}/{report['attempted']}), "
          f"distinct ids per clip {d['distinct_ids_per_clip']}")
    if report.get("tracing_overhead"):
        for k, v in report["tracing_overhead"].items():
            print(f"  tracing overhead {k}: {v['overhead']:+.4g} ({100 * v['overhead_share']:+.1f}%)")
    env = report["environment"]
    print(f"  env: nproc {env['nproc']}, blas threads {env['blas_threads']} "
          f"(runtime {env['blas_threads_runtime']}), {env['blas']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, params {env['params']}")
    print(f"  full result: {path}")


if __name__ == "__main__":
    sys.exit(main())
