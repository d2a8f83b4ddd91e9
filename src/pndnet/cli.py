"""Command-line interface: train, eval, predict, gradcam, split, gradcheck, bench.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Commands only write to paths derived from their flags, and identical inputs
plus an identical seed reproduce byte-identical outputs, except ``bench``'s
wall-clock ``dense_seconds`` and ``rank1_seconds`` columns.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from .configfile import load_config_file
from .data import load_dataset, kfold_split, split_train_test
from .errors import (ArgumentError, CheckpointError, ConfigurationError,
                     DimensionError, IngestionError, NumericalError, PndError,
                     SplitError, TrainingError)
from .gradcam import grad_cam, save_heatmap
from .gradcheck import OP_CHECKS, TOLERANCE, run_checks
from .graph import (PROPAGATION_MACS, dense_mac_count, gcn_layer_forward,
                    gcn_layer_forward_rank1, rank1_mac_count)
from .imageio import IMAGE_SUFFIXES, read_image
from .tensor import Rng, Tensor
from .train import cross_validate, evaluate, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

BENCH_CSV_HEADER = "p,c,dense_macs,rank1_macs,dense_seconds,rank1_seconds,max_abs_diff"

_DATA_ERRORS = (IngestionError, SplitError, CheckpointError, ArgumentError,
                DimensionError, ConfigurationError)
_NUMERIC_ERRORS = (NumericalError, TrainingError)


class UsageError(PndError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} {path} does not exist")
    return p


def _require_dir(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"{what} {path} is not a directory")
    return p


def _output(flag: str, value: str, is_dir: bool = False) -> Path:
    """The output path a flag names, with its directory (the path itself for
    ``is_dir``) made; a directory that cannot be made or written, or a
    directory given as a file, is a usage error."""
    path = Path(value)
    folder = path if is_dir else path.parent
    with contextlib.suppress(OSError):
        folder.mkdir(parents=True, exist_ok=True)
    if not (folder.is_dir() and os.access(folder, os.W_OK)) or (path.is_dir() and not is_dir):
        raise UsageError(f"{flag} {value} is not a writable {'directory' if is_dir else 'file'}")
    return path


def _emit(flag: str, value: str | None, text: str) -> bool:
    """Write ``text`` to the file a flag names, or to stdout without the flag;
    returns whether it wrote the file."""
    if not value:
        sys.stdout.write(text)
        return False
    _output(flag, value).write_text(text, encoding="utf-8")
    return True


def _require_repeats(args):
    if args.repeats < 1:
        raise UsageError(f"--repeats must be at least 1, got {args.repeats}")


def _apply_thread_cap():
    value = os.environ.get("PND_THREADS")
    if not value:
        return None
    try:
        limit = max(1, int(value))
    except ValueError:
        raise UsageError(f"PND_THREADS must be an integer, got {value!r}")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        raise UsageError("PND_THREADS needs the threadpoolctl package, which is not installed; "
                         "unset it, or cap BLAS threads with OPENBLAS_NUM_THREADS before start")
    return threadpool_limits(limits=limit)


def _log(message: str):
    print(message, flush=True)


# ---------------------------------------------------------------------------
# verbs


def cmd_train(args) -> int:
    data_dir = _require_dir(args.data, "data directory")
    config_path = _require_file(args.config, "config file")
    model_cfg, train_cfg = load_config_file(config_path)
    if args.seed is not None:
        train_cfg.seed = args.seed
    dataset = load_dataset(data_dir)
    plan = split_train_test(dataset, seed=train_cfg.seed)
    out = _output("--out", args.out)
    if args.folds is not None:
        plan = kfold_split(plan, k=args.folds, seed=train_cfg.seed)
        results, avg = cross_validate(model_cfg, dataset, plan, train_cfg, log=_log)
        rows = [r.summary_row() for r in results]
        for r in results:
            save_checkpoint(r.checkpoint, out.with_suffix(out.suffix + f".fold{r.fold}"))
        report = {"folds": rows, "avg": avg}
        report_path = out.with_suffix(out.suffix + ".cv.json")
        report_path.write_text(json.dumps(report, sort_keys=True, indent=2), encoding="utf-8")
        _log(f"wrote {len(results)} fold checkpoints and {report_path}")
        return EXIT_OK
    ckpt, history = train(model_cfg, dataset, plan, train_cfg, log=_log)
    save_checkpoint(ckpt, out)
    history_path = out.with_suffix(out.suffix + ".history.json")
    history_path.write_text(
        json.dumps([h.to_json_dict() for h in history], sort_keys=True, indent=2),
        encoding="utf-8")
    _log(f"wrote {out} and {history_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    data_dir = _require_dir(args.data, "data directory")
    ckpt_path = _require_file(args.ckpt, "checkpoint")
    dataset = load_dataset(data_dir)
    out = _output("--report", args.report)
    report = evaluate(load_checkpoint(ckpt_path), dataset)
    out.write_text(json.dumps(report.to_json_dict(), sort_keys=True, indent=2), encoding="utf-8")
    _log(f"accuracy={report.accuracy:.4f} report={out}")
    return EXIT_OK


def _load_for_images(args):
    """The model and checkpoint extras that ``--ckpt`` names, and the image
    files that ``--input`` names: one file, or a directory's in name order."""
    ckpt_path = _require_file(args.ckpt, "checkpoint")
    target = Path(args.input)
    if not target.exists():
        raise UsageError(f"input {target} does not exist")
    model, extras = model_from_checkpoint(load_checkpoint(ckpt_path))
    if not target.is_dir():
        return model, extras, [target]
    paths = sorted(p for p in target.iterdir() if p.is_file() and p.suffix.lower() in IMAGE_SUFFIXES)
    if not paths:
        raise IngestionError(f"no image files in {target}")
    return model, extras, paths


def cmd_predict(args) -> int:
    model, extras, paths = _load_for_images(args)
    lines = []
    for path, probs in zip(paths, model.classify(map(read_image, paths), extras["channel_means"])):
        idx = int(np.argmax(probs))
        lines.append(json.dumps({
            "path": str(path),
            "class_index": idx,
            "class_name": extras["class_names"][idx],
            "probability": float(probs[idx]),
            "probabilities": [float(p) for p in probs],
        }, sort_keys=True))
    _emit("--out", args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_gradcam(args) -> int:
    model, extras, paths = _load_for_images(args)
    out_dir = _output("--out-dir", args.out_dir, is_dir=True)
    for path in paths:
        x = model.eval_input(read_image(path), extras["channel_means"])
        heatmap, target_class = grad_cam(model, x, args.target_class)
        pgm_path, json_path = save_heatmap(
            heatmap, out_dir / f"{path.stem}.cam",
            meta={"path": str(path), "class_index": target_class,
                  "class_name": extras["class_names"][target_class]})
        print(json.dumps({"path": str(path), "class_index": target_class,
                          "heatmap": str(pgm_path), "values": str(json_path)}, sort_keys=True))
    return EXIT_OK


def cmd_split(args) -> int:
    data_dir = _require_dir(args.data, "data directory")
    dataset = load_dataset(data_dir)
    plan = split_train_test(dataset, ratio=args.ratio, seed=args.seed)
    if args.folds is not None:
        plan = kfold_split(plan, k=args.folds, seed=args.seed)
    if _emit("--out", args.out, plan.to_json() + "\n"):
        _log(f"wrote {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    names = args.ops.split(",") if args.ops else None
    _require_repeats(args)
    seeds = range(args.seed, args.seed + args.repeats)
    errors = run_checks(names, seeds=seeds)
    failed = []
    for name in sorted(errors):
        status = "PASS" if errors[name] <= TOLERANCE else "FAIL"
        print(f"{name:24s} max_rel_err={errors[name]:.3e} {status}")
        if status == "FAIL":
            failed.append(name)
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _bench_cell(p: int, c: int, repeats: int, rng: Rng) -> dict:
    g = Tensor(rng.uniform(-1.0, 1.0, (p, c)))
    weight = Tensor(rng.uniform(-1.0, 1.0, (c, c)))
    start = PROPAGATION_MACS.macs
    dense = gcn_layer_forward(g, weight)
    dense_macs = PROPAGATION_MACS.macs - start
    start = PROPAGATION_MACS.macs
    fast = gcn_layer_forward_rank1(g, weight)
    rank1_macs = PROPAGATION_MACS.macs - start
    diff = float(np.abs(dense.data - fast.data).max())
    if diff > 1e-5:
        raise NumericalError(
            f"dense and rank-1 propagation disagree at P={p}, C={c}: max |diff| = {diff:.3e}")
    if dense_macs != dense_mac_count(p, c, c) or rank1_macs != rank1_mac_count(p, c, c):
        raise NumericalError(f"operation-count accounting broken at P={p}, C={c}")

    def time_path(fn) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            fn(g, weight)
        return (time.perf_counter() - start) / repeats

    return {"p": p, "c": c, "dense_macs": dense_macs, "rank1_macs": rank1_macs,
            "dense_seconds": time_path(gcn_layer_forward),
            "rank1_seconds": time_path(gcn_layer_forward_rank1),
            "max_abs_diff": diff}


def _sizes(flag: str, text: str) -> list[int]:
    try:
        sizes = [int(v) for v in text.split(",")]
        if all(v > 0 for v in sizes):
            return sizes
    except ValueError:
        pass
    raise UsageError(f"{flag} requires a comma list of positive sizes, got {text!r}")


def cmd_bench(args) -> int:
    ps, cs = _sizes("--p", args.p), _sizes("--c", args.c)
    _require_repeats(args)
    rng = Rng(args.seed)
    lines = [BENCH_CSV_HEADER]
    for p in ps:
        for c in cs:
            row = _bench_cell(p, c, args.repeats, rng)
            lines.append(f"{row['p']},{row['c']},{row['dense_macs']},{row['rank1_macs']},"
                         f"{row['dense_seconds']:.6e},{row['rank1_seconds']:.6e},"
                         f"{row['max_abs_diff']:.3e}")
    if _emit("--out", args.out, "\n".join(lines) + "\n"):
        _log(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="pndnet", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", help="train a model (70:30 split, or k-fold CV)")
    p.add_argument("--data", required=True, help="dataset root (one directory per class)")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--folds", type=int, default=None, help="run K-fold cross-validation")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True, help="metrics JSON output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="class probabilities for images (one JSON line per image)")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True, help="image file or directory")
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcam", help="export class-activation heatmaps")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True, help="image file or directory")
    p.add_argument("--class", dest="target_class", type=int, default=None,
                   help="target class index (default: predicted class)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gradcam)

    p = sub.add_parser("split", help="emit a deterministic train/test (+folds) plan")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=0.7)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("gradcheck", help="finite-difference checks for all registered ops")
    p.add_argument("--ops", default=None, help=f"comma list from: {', '.join(sorted(OP_CHECKS))}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3, help="seeds per op")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="dense vs rank-1 propagation timings and op counts")
    p.add_argument("--p", required=True, help="comma list of node counts")
    p.add_argument("--c", required=True, help="comma list of channel widths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        limit = _apply_thread_cap()
        try:
            return args.func(args)
        finally:
            if limit is not None:
                limit.unregister()
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
