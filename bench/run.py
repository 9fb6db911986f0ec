"""End-to-end and per-layer benchmark of the reviewpt train -> fine-tune -> eval pipeline.

Run from the repository root:

    python3 bench/run.py --workload posttrain-pad320 --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all

One caller runs the workload's rounds back to back (a closed loop): a
post-train call, then fine-tuning and a held-out evaluation for RRC, AE and
ASC.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics plus the tracing overhead.  Every run prints a JSON record
(environment, input fingerprint, checks, span table) and, as its last line,
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# The BLAS pool is sized before numpy loads.  One thread: on two cores, a
# second OpenBLAS thread widened the post-train step-time tail without
# moving the median.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3  # so a traced run has a traced round and an untraced one after the warm-up round
SETUPS_PER_ROUND = 2  # set-ups timed after each round, for the median of setup_s
EXIT_NO_PROGRAM = 2
EXIT_GUARD = 3


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- environment -------------------------------------------------------------------


def _git_revision():
    """HEAD from .git without running git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "reviewpt").glob("*.py")) + [ROOT / "tests" / "synthworld.py"]
    files += sorted(BENCH.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


# -- measurement taps ------------------------------------------------------------------


class Taps:
    """Thin wrappers that time post-train steps and evaluations and keep predictions.

    Installed in untraced and traced runs alike; each adds one Python call per
    post-train step or per evaluation.
    """

    def __init__(self, training, patcher):
        self.active = True  # off while a set-up runs between rounds
        self.steps = []  # (seconds, real tokens, loss)
        self.step_failures = 0
        self.evaluate_s = 0.0
        self.predictions = None
        tap = self

        step = training.posttrain_step

        def posttrain_step(params, adam, dk_batch, mrc_batch, *args, **kwargs):
            if not tap.active:
                return step(params, adam, dk_batch, mrc_batch, *args, **kwargs)
            tokens = sum(int(ex.packed.pad_mask.sum()) for ex in dk_batch) + sum(
                int(ex.packed.pad_mask.sum()) for ex in mrc_batch
            )
            t0 = time.perf_counter()
            try:
                report = step(params, adam, dk_batch, mrc_batch, *args, **kwargs)
            except training.NumericError:
                tap.step_failures += 1
                raise
            tap.steps.append((time.perf_counter() - t0, tokens, report["l_dk"] + report["l_mrc"]))
            return report

        evaluate = training.evaluate_task

        def evaluate_task(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return evaluate(*args, **kwargs)
            finally:
                tap.evaluate_s += time.perf_counter() - t0

        patcher.replace(step, posttrain_step)
        patcher.replace(evaluate, evaluate_task)
        for name in ("predict_rrc", "predict_ae", "predict_asc"):
            predict = getattr(training, name)

            def keep(*args, _predict=predict, **kwargs):
                tap.predictions = _predict(*args, **kwargs)
                return tap.predictions

            patcher.replace(predict, keep)


# -- checks ---------------------------------------------------------------------------


def check_predictions(task, examples, predictions, polarities) -> list[str]:
    """One message per held-out example whose output is malformed."""
    if len(predictions) != len(examples):
        return [f"{task}: {len(predictions)} predictions for {len(examples)} examples"] * len(examples)
    bad = []
    if task == "rrc":
        for ex in examples:
            text = predictions.get(ex.id)
            if not text or text not in ex.context:
                bad.append(f"rrc {ex.id}: answer {text!r} is empty or not in its context")
    elif task == "ae":
        for i, (ex, chunks) in enumerate(zip(examples, predictions)):
            if any(not 0 <= s <= e < len(ex.words) for s, e in chunks):
                bad.append(f"ae #{i}: chunks {chunks} outside {len(ex.words)} words")
    else:
        for i, label in enumerate(predictions):
            if label not in polarities:
                bad.append(f"asc #{i}: label {label!r} not in {polarities}")
    return bad


def tail(values, n):
    """(percentile, value) over the first ``n`` values: the highest whole percentile with ten of them beyond it.

    ``n`` is fixed by the workload, not by how many steps fit in the run, so
    every commit is measured at the same percentile.  At least the median.
    """
    import numpy as np

    q = max(50, math.floor(100 * (n - 10) / n))
    return q, float(np.percentile(values[:n], q))


# -- one workload -----------------------------------------------------------------------


class Run:
    def __init__(self, w, seed, seconds, trace, workdir):
        import workloads as WL
        from reviewpt import training
        from tracer import Patcher, Tracer

        self.WL, self.T = WL, training
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.workdir = workdir
        self.tracer = Tracer()
        self.patcher = Patcher()
        self.ops = {k: [0, 0] for k in ("posttrain_step", "finetune_batch", "eval_example")}
        self.problems = []
        self.finetune_examples, self.finetune_s = 0, 0.0
        self.eval_n = dict.fromkeys(WL.TASKS, 0)
        self.eval_s = dict.fromkeys(WL.TASKS, 0.0)
        self.eval_f1 = {}
        self.round_s = {False: [], True: []}  # traced? -> round wall times
        self.setup_times = []
        self.builds = set()  # (input fingerprint, base weights digest) of every set-up
        self.expected = {}

    # set-up --------------------------------------------------------------------

    def setup(self):
        """Build the world from the seed again and time it.

        The first build is the one the rounds use.  Later builds run between
        rounds, so a burst of load on the machine skews one sample of the
        median rather than all of them, and they must reproduce the first.
        """
        index = len(self.setup_times)
        traced = self.trace and index == 1
        if traced:
            self.tracer.scope = "setup"
            self.tracer.install()
        path = self.workdir / f"setup{index}"
        gc.collect()  # the last round's garbage is not set-up work
        t0 = time.perf_counter()
        try:
            world = self.WL.build_world(self.w, self.seed, path)
        finally:
            if traced:
                self.tracer.uninstall()
        self.setup_times.append(time.perf_counter() - t0)
        self.builds.add((world.fingerprint, _blob_digest(world.base.blobs)))
        if index == 0:
            self.world = world
            if self.w.dense:
                self.problems += [
                    f"dense workload: stream {name} is {frac:.3f} padding, above {self.WL.DENSE_MAX_PAD}"
                    for name, frac in self.WL.stream_pad_fractions(world).items()
                    if frac > self.WL.DENSE_MAX_PAD
                ]
        else:
            shutil.rmtree(path, ignore_errors=True)

    # rounds -----------------------------------------------------------------------

    def loop(self):
        self.setup()
        taps = Taps(self.T, self.patcher)
        self.taps = taps
        self.ckpt = self.world.base
        measured = 0.0
        rounds = 0
        min_rounds = max(MIN_ROUNDS, math.ceil(self.w.tail_steps / self.w.steps_per_round))
        try:
            while True:
                traced = self.trace and rounds % 2 == 1
                if traced:
                    self.tracer.scope = "round"
                    self.tracer.install()
                    self._expect_round()
                t0 = time.perf_counter()
                try:
                    self.round()
                finally:
                    if traced:
                        self.tracer.uninstall()
                self.round_s[traced].append(time.perf_counter() - t0)
                measured += self.round_s[traced][-1]
                rounds += 1
                taps.active = False
                for _ in range(SETUPS_PER_ROUND):
                    self.setup()
                taps.active = True
                if rounds >= min_rounds and measured + measured / rounds > self.seconds:
                    break
        finally:
            self.patcher.undo()
        if len(self.builds) != 1:
            self.problems.append("set-up is not deterministic: repeated set-ups built different inputs or weights")
        self.rounds = rounds
        self.measured_s = measured

    def round(self):
        WL, T, w, world = self.WL, self.T, self.w, self.world
        tr = self.tracer
        taps = self.taps
        steps_before = len(taps.steps)
        tr.phase = "posttrain"
        try:
            self.ckpt = T.posttrain_run(
                WL.posttrain_config(w, self.seed, w.steps_per_round),
                world.model_config,
                world.vocab,
                world.dk,
                world.mrc,
                self.workdir / "posttrain",
                init=self.ckpt,
            )
        except T.NumericError as e:
            self.problems.append(f"post-train: {e}")
        steps = taps.steps[steps_before:]
        self.ops["posttrain_step"][0] += len(steps) + taps.step_failures
        self.ops["posttrain_step"][1] += taps.step_failures
        taps.step_failures = 0
        for _, _, loss in steps:
            if not math.isfinite(loss):
                self.ops["posttrain_step"][1] += 1
                self.problems.append(f"post-train: non-finite loss {loss}")

        for task in WL.TASKS:
            train, valid, heldout = world.tasks[task]
            batches = WL.FINETUNE_EPOCHS * math.ceil(len(train) / w.batch)
            self.ops["finetune_batch"][0] += batches
            tr.phase = "finetune"
            inner = taps.evaluate_s
            t0 = time.perf_counter()
            try:
                ckpt, report = T.finetune(
                    WL.finetune_config(w, self.seed, task),
                    world.model_config,
                    world.vocab,
                    train,
                    valid,
                    init=world.base,
                )
            except T.NumericError as e:
                self.ops["finetune_batch"][1] += 1
                self.problems.append(f"fine-tune {task}: {e}")
                continue
            self.finetune_s += time.perf_counter() - t0 - (taps.evaluate_s - inner)
            self.finetune_examples += len(report["epochs"]) * len(train)
            params = ckpt.restore()
            tr.phase = "eval"
            t0 = time.perf_counter()
            result = T.evaluate_task(params, task, heldout)
            self.eval_s[task] += time.perf_counter() - t0
            self.eval_n[task] += len(heldout)
            self.eval_f1[task] = result.primary_value
            bad = check_predictions(task, heldout, taps.predictions, self.WL.D.POLARITIES)
            self.ops["eval_example"][0] += len(heldout)
            self.ops["eval_example"][1] += min(len(bad), len(heldout))
            self.problems += bad[:5]

    def _expect_round(self):
        """Calls each wrapper must see in one traced round."""
        WL, w, world = self.WL, self.w, self.world
        k, u, e = w.steps_per_round, w.sub_batches, WL.FINETUNE_EPOCHS
        batches = sum(e * math.ceil(len(world.tasks[t][0]) / w.batch) for t in WL.TASKS)
        per_task = {t: e * len(world.tasks[t][1]) + len(world.tasks[t][2]) for t in WL.TASKS}
        want = {
            "training.posttrain_run": 1,
            "training.posttrain_step": k,
            "training.evaluate_task": len(WL.TASKS) * (e + 1),
            "metrics.squad_eval": e + 1,
            "metrics.ae_report": e + 1,
            "metrics.asc_report": e + 1,
            "decoding.decode_span": per_task["rrc"],
            "decoding.decode_bio": per_task["ae"],
            "decoding.predict_polarity": per_task["asc"],
            "model.encode_eval": sum(per_task.values()),
            "model.encode_batch": 2 * u * k + batches,
            "autograd.backward": u * k + batches,
            "optim.adam_step": k + batches,
            "optim.clip_grad_norm": k + batches,
            "checkpoint.save_checkpoint": _saves(self.ckpt.step, k, w.checkpoint_every),
        }
        for name, n in want.items():
            self.expected[("round", name)] = self.expected.get(("round", name), 0) + n

    def _expect_setup(self):
        w, counts = self.w, self.world.raw_counts
        want = {
            "tokenizer.build_vocab": 1,
            "data.make_dk_examples": 1,
            "data.encode_mrc": counts["mrc"],
            "data.encode_bio": counts["bio"],
            "data.encode_asc": counts["asc"],
            "checkpoint.load_checkpoint": 1,
            "checkpoint.save_checkpoint": 1,
        }
        for name, n in want.items():
            self.expected[("setup", name)] = n

    def guard(self) -> list[str]:
        """Wrappers that did not fire as often as the work done requires."""
        self._expect_setup()
        tr = self.tracer
        out = [
            f"{scope} {name}: {tr.calls(scope, name)} calls, expected {n}"
            for (scope, name), n in sorted(self.expected.items())
            if tr.calls(scope, name) != n
        ]
        for name in tr.names:
            if tr.calls("setup", name) + tr.calls("round", name) == 0:
                out.append(f"{name}: never called")
        return out

    # results --------------------------------------------------------------------------

    def losses(self):
        losses = [loss for _, _, loss in self.taps.steps] or [math.nan]
        win = max(1, len(losses) // 4)
        return statistics.fmean(losses[:win]), statistics.fmean(losses[-win:]), win

    def finish_checks(self):
        first, last, win = self.losses()
        if not last < first:  # also catches a run without a finished step
            self.ops["posttrain_step"][1] += win
            self.problems.append(f"post-train loss did not fall: first-window mean {first}, last-window mean {last}")

    def end_to_end(self) -> dict:
        steps = [dt for dt, _, _ in self.taps.steps] or [math.nan]
        q, tail_s = tail(steps, self.w.tail_steps)
        self.tail_percentile = q
        m = {
            "setup_s": statistics.median(self.setup_times[1:]),  # the first build also warms up
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "posttrain.tokens_per_s": _rate(sum(t for _, t, _ in self.taps.steps), sum(steps)),
            "posttrain.step_s_p50": statistics.median(steps),
            "posttrain.step_s_tail": tail_s,
            "finetune.examples_per_s": _rate(self.finetune_examples, self.finetune_s),
        }
        for task in self.WL.TASKS:
            m[f"eval.{task}.examples_per_s"] = _rate(self.eval_n[task], self.eval_s[task])
        return m

    def per_layer(self) -> dict:
        from tracer import HEADS, OPS

        tr = self.tracer
        n = len(self.round_s[True])

        def rs(name):
            return tr.self_s("round", name) / n

        def ss(name):
            return tr.self_s("setup", name)

        c = tr.counts
        first, last, _ = self.losses()
        untraced = statistics.fmean(self.round_s[False][1:])  # the first round also warms up
        m = {
            "tokenizer.build_vocab_s": ss("tokenizer.build_vocab"),
            "tokenizer.encode_s": ss("tokenizer.encode"),
            "tokenizer.encode_calls": tr.calls("setup", "tokenizer.encode"),
            "data.make_dk_examples_s": ss("data.make_dk_examples"),
            "data.encode_task_s": sum(ss(f"data.encode_{t}") for t in ("mrc", "bio", "asc")),
            "data.dropped": c[("setup", "dropped")],
            "data.pad_frac": self.world.pad_frac,
            "model.encode_batch_s": rs("model.encode_batch"),
            "model.encode_eval_s": rs("model.encode_eval"),
            "model.heads_s": sum(rs(f"model.{h}") for h in HEADS),
            "model.useful_position_frac": c[("round", "real_positions")] / c[("round", "positions")],
            "model.useful_attn_frac": c[("round", "real_attn_pairs")] / c[("round", "attn_pairs")],
        }
        for op in OPS:
            m[f"autograd.{op}.fwd_s"] = rs(f"autograd.{op}.fwd")
            m[f"autograd.{op}.bwd_s"] = rs(f"autograd.{op}.bwd")
            m[f"autograd.{op}.calls"] = (
                tr.calls("round", f"autograd.{op}.fwd") + tr.calls("round", f"autograd.{op}.bwd")
            ) / n
        m.update(
            {
                "autograd.backward_s": rs("autograd.backward"),
                "autograd.graph_nodes": c[("round", "graph_nodes.posttrain")]
                / tr.calls("round", "training.posttrain_step"),
                "optim.adam_step_s": rs("optim.adam_step"),
                "optim.clip_grad_norm_s": rs("optim.clip_grad_norm"),
                "training.posttrain_step_s": tr.total_s("round", "training.posttrain_step") / n,
                "training.loop_overhead_s": (
                    tr.total_s("round", "training.posttrain_run") - tr.total_s("round", "training.posttrain_step")
                )
                / n,
                "training.evaluate_task_s": tr.total_s("round", "training.evaluate_task") / n,
                "training.loss_first": first,
                "training.loss_last": last,
                "eval.rrc.f1": self.eval_f1["rrc"],
                "eval.ae.f1": self.eval_f1["ae"],
                "eval.asc.macro_f1": self.eval_f1["asc"],
                "decoding.decode_span_s": rs("decoding.decode_span"),
                "decoding.decode_bio_s": rs("decoding.decode_bio"),
                "decoding.predict_polarity_s": rs("decoding.predict_polarity"),
                "metrics.squad_eval_s": rs("metrics.squad_eval"),
                "metrics.ae_report_s": rs("metrics.ae_report"),
                "metrics.asc_report_s": rs("metrics.asc_report"),
                "checkpoint.save_s": rs("checkpoint.save_checkpoint"),
                "checkpoint.load_s": ss("checkpoint.load_checkpoint"),
                "checkpoint.bytes": c[("round", "checkpoint_bytes")] / n,
                "trace.overhead_frac": statistics.fmean(self.round_s[True]) / untraced - 1.0,
            }
        )
        return m


def _saves(start, steps, every) -> int:
    """Checkpoints a posttrain_run call from step ``start`` writes: each step that ``every`` divides, and the last."""
    return ((start + steps) // every - start // every if every else 0) + 1


def _rate(n, seconds) -> float:
    return n / seconds if seconds > 0 else math.nan


def _blob_digest(blobs) -> str:
    h = hashlib.sha256()
    for name in sorted(blobs):
        h.update(name.encode() + blobs[name].tobytes())
    return h.hexdigest()


def run_workload(w, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list]:
    """Set up, measure and check one workload; returns (result, record, guard failures)."""
    workdir = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    try:
        run = Run(w, seed, seconds, trace, workdir)
        run.loop()
        run.finish_checks()
        spec = _spec()
        group = "per_layer" if trace else "end_to_end"
        values = run.per_layer() if trace else run.end_to_end()
        failed = sum(f for _, f in run.ops.values())
        guard = run.guard() if trace and failed == 0 else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    run.problems += [f"{k} is not finite" for k, m in metrics.items() if not math.isfinite(m["value"])]
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": sum(a for a, _ in run.ops.values()),
        "failed": failed,
        "metrics": metrics,
    }
    world = run.world
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": run.rounds,
        "traced_rounds": len(run.round_s[True]),
        "measured_s": run.measured_s,
        "environment": environment(seed),
        "settings": {
            "workload": {k: v for k, v in vars(w).items() if k != "why"},
            "learning_rate": run.WL.LEARNING_RATE,
            "clip_norm": run.WL.CLIP_NORM,
            "finetune_epochs": run.WL.FINETUNE_EPOCHS,
        },
        "inputs": {
            "sha256": world.fingerprint,
            "vocab_sha256": world.vocab.digest().hex(),
            "pad_frac": world.pad_frac,
            "stream_pad_frac": run.WL.stream_pad_fractions(world),
        },
        "operations": {k: {"attempted": a, "failed": f} for k, (a, f) in run.ops.items()},
        "posttrain_steps": len(run.taps.steps),
        "problems": run.problems[:20],
        "guard": guard,
    }
    if not trace:
        record["tail_percentile"] = run.tail_percentile
        record["setup_s"] = run.setup_times
    else:
        record["spans"] = {"recorded": len(run.tracer.spans), "table": run.tracer.table()}
    return result, record, guard


# -- command line -------------------------------------------------------------------------


def main(argv=None, workloads=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, help="measured time per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]

    for need in (ROOT / "src" / "reviewpt" / "__init__.py", ROOT / "tests" / "synthworld.py"):
        if not need.is_file():
            print(f"bench: {need.relative_to(ROOT)} not found; run from a reviewpt checkout", file=sys.stderr)
            return EXIT_NO_PROGRAM
    if args.workload == "all":
        return run_all(args)
    for path in (ROOT / "tests", ROOT / "src", BENCH):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if workloads is None:
        from workloads import WORKLOADS as workloads
    if args.workload not in workloads:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)} or all")

    result, record, guard = run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    if guard:
        print("bench: wrapper call-count guard failed:\n  " + "\n  ".join(guard), file=sys.stderr)
        return EXIT_GUARD
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, so peak memory is per workload."""
    names = [w["name"] for w in _spec()["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
