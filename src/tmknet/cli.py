"""Command-line interface.

Subcommands: synth, import, train, adapt, eval, ablate, saliency,
export-features, compare. Every run writes its outputs under --out together
with a config snapshot, which also records the numpy version and BLAS build;
re-running from that snapshot reproduces the metrics bit for bit with the
same numpy version and BLAS build. Paper-shape gradients
round differently with another OpenBLAS thread count, so `main` first pins
OpenBLAS to one thread (a no-op where numpy bundles no OpenBLAS that exports
`scipy_openblas_set_num_threads`).

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import _blas_threads, _openblas
from .data import (
    SynthSpec,
    _field_types,
    _json_object,
    _read_store_file,
    load_dataset,
    save_dataset,
    synth_generate,
)
from .errors import ConfigError, DataError, NumericalError
from .experiment import (
    ABLATION_VARIANTS,
    RunConfig,
    ablate,
    ablation_table,
    adapt,
    build_model_config,
    domain_key,
    evaluate,
    export_features,
    load_checkpoint,
    run_uda,
    saliency,
    save_checkpoint,
    train,
)
from .metrics import MetricsReport, wilcoxon_signed_rank


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise ConfigError(f"{message}\n{self.format_usage()}")


def build_id(cfg_hash: str) -> str:
    return f"tmknet-v{__version__}-g{cfg_hash[:8]}"


def _default_seed() -> int:
    env = os.environ.get("TMKNET_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ConfigError(f"TMKNET_SEED must be an integer, got {env!r}") from None


# RunConfig fields with a flag of their own, typed by RunConfig's annotations
_CONFIG_FLAGS = ("subject", "target_session", "n_t", "n_s", "n_b", "r_data", "pool_size",
                 "lr", "weight_decay", "batch_size", "domains_per_batch", "epochs", "seed",
                 "val_fraction", "adaptation", "gamma_source", "gamma_target")
# SynthSpec fields with a flag of their own (`synth --seed` defaults differently)
_SYNTH_FLAGS = ("n_classes", "sensors", "n_domains", "trials_per_cell", "fs", "window_ms",
                "overlap_ms", "domain_shift")
# flags not spelled as their field
_FLAG_NAMES = {"n_classes": "classes", "n_domains": "domains"}
# every --seed falls back to `_default_seed()`
_SEED_HELP = "default TMKNET_SEED or 0"


def _add_field_flags(p: argparse.ArgumentParser, cls, fields: tuple[str, ...]) -> None:
    """One flag per field of dataclass `cls`, typed by its annotation and
    defaulting to None; its help names `cls`'s default, or for `seed` the
    fallback of `_default_seed`."""
    defaults, types = cls(), _field_types(cls)
    for name in fields:
        flag = "--" + _FLAG_NAMES.get(name, name).replace("_", "-")
        p.add_argument(flag, dest=name, type=types[name], default=None,
                       help=_SEED_HELP if name == "seed" else f"default {getattr(defaults, name)}")


def _flag_values(args: argparse.Namespace, fields: tuple[str, ...]) -> dict:
    """The fields among `fields` that a flag set."""
    return {name: getattr(args, name) for name in fields if getattr(args, name) is not None}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with RunConfig fields, or a run's "
                   "config.json snapshot; flags override it")
    _add_field_flags(p, RunConfig, _CONFIG_FLAGS)
    p.add_argument("--ablation", default=None,
                   help=f"comma-separated variants from {', '.join(ABLATION_VARIANTS)}")


def _run_config(args: argparse.Namespace) -> RunConfig:
    doc: dict = {}
    if args.config:
        path = Path(args.config)
        doc = _json_object(_read_store_file(path), f"--config {path}")
        if isinstance(doc.get("config"), dict):  # a run directory's config.json
            doc = doc["config"]
    doc.update(_flag_values(args, _CONFIG_FLAGS))
    if args.ablation is not None:
        doc["ablation"] = [v for v in args.ablation.split(",") if v]
    if "seed" not in doc:
        doc["seed"] = _default_seed()
    try:
        return RunConfig(**doc)
    except TypeError as exc:  # a --config key that names no field
        raise ConfigError(f"--config {args.config}: {exc}") from exc


def _environment() -> dict:
    """What a run's bits depend on besides its config and code: the numpy
    version, OpenBLAS's build string and the thread count in force, each
    None where it cannot be read."""
    config = _openblas("get_config", ctypes.c_char_p)
    return {"numpy": np.__version__, "blas": None if config is None else config().decode(),
            "blas_threads": _blas_threads()}


def _write_run_dir(out: str, cfg: RunConfig) -> Path:
    """The run directory `out`, made if missing, with `cfg`'s config.json."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    snapshot = {"config": asdict(cfg), "seed": cfg.seed, "config_hash": cfg.hash(),
                "build_id": build_id(cfg.hash()), "environment": _environment()}
    (out / "config.json").write_text(json.dumps(snapshot, indent=2))
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# manifest fields a trained model depends on: trial shape, sensor groups, classes
_MODEL_FIELDS = ("fs", "window_ms", "sensors", "class_names", "flexor_ids",
                 "extensor_ids", "proximal_ids", "distal_ids")


def _load_checkpoint_and_data(args):
    """(model, cfg, manifest, trials) from --checkpoint and --data; DataError
    naming each field in which --data is recorded differently."""
    model, cfg, manifest = load_checkpoint(args.checkpoint)
    data_manifest, trials = load_dataset(args.data)
    differ = [f"{k} {getattr(data_manifest, k)!r} (checkpoint: {getattr(manifest, k)!r})"
              for k in _MODEL_FIELDS if getattr(data_manifest, k) != getattr(manifest, k)]
    if differ:
        raise DataError(f"{args.data} is recorded differently from the data "
                        f"{args.checkpoint} was trained on: " + "; ".join(differ))
    return model, cfg, manifest, trials


def _parse_domain(text: str) -> tuple[int, int]:
    try:
        subject, session = text.split("/")
        return int(subject), int(session)
    except ValueError as exc:
        raise ConfigError(f"--domain must look like SUBJECT/SESSION, got {text!r}") from exc


# --- subcommand bodies ----------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = SynthSpec(**_flag_values(args, _SYNTH_FLAGS),
                     seed=args.seed if args.seed is not None else _default_seed())
    manifest, trials = synth_generate(spec)
    save_dataset(args.out, manifest, trials)
    print(f"wrote {len(trials)} trials ({manifest.sensors} sensors, "
          f"{manifest.n_classes} classes, {len(manifest.domains)} domains) to {args.out}")
    return 0


def _cmd_import(args) -> int:
    manifest, trials = load_dataset(args.src)
    save_dataset(args.out, manifest, trials)
    print(f"validated and copied {len(trials)} trials to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _run_config(args)
    manifest, trials = load_dataset(args.data)
    build_model_config(manifest, cfg)  # reject the config before the run directory exists
    out = _write_run_dir(args.out, cfg)
    if args.eval_target:
        model, val_report, target_report = run_uda(cfg, manifest, trials)
        (out / "target_metrics.json").write_text(target_report.to_json())
    else:
        model, val_report = train(cfg, manifest, trials)
    save_checkpoint(out / "checkpoint.tmk", model, cfg, manifest)
    (out / "metrics.json").write_text(val_report.to_json())
    print(f"run complete: val accuracy {val_report.accuracy:.4f} "
          f"(checkpoint + metrics under {out})")
    return 0


def _cmd_adapt(args) -> int:
    model, cfg, manifest, trials = _load_checkpoint_and_data(args)
    target = (cfg.subject, cfg.target_session)
    signals = [t.signal for t in trials if t.domain == target]
    if not signals:
        raise DataError(f"no trials for target domain {target} in {args.data}")
    adapt(model, signals, target, batch_size=cfg.batch_size)
    out = _write_run_dir(args.out, cfg)
    save_checkpoint(out / "checkpoint.tmk", model, cfg, manifest)
    print(f"adapted statistics for domain {domain_key(target)}; "
          f"checkpoint under {out}")
    return 0


def _cmd_eval(args) -> int:
    model, cfg, manifest, trials = _load_checkpoint_and_data(args)
    domain = _parse_domain(args.domain) if args.domain else (cfg.subject, cfg.target_session)
    chosen = [t for t in trials if t.domain == domain]
    if not chosen:
        raise DataError(f"no trials for domain {domain_key(domain)} in {args.data}")
    report = evaluate(model, chosen, manifest)
    report.seed = cfg.seed
    report.config_hash = cfg.hash()
    out = _write_run_dir(args.out, cfg)
    (out / "metrics.json").write_text(report.to_json())
    print(f"domain {domain_key(domain)}: accuracy {report.accuracy:.4f}, "
          f"macro-F1 {report.macro_f1:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _run_config(args)
    manifest, trials = load_dataset(args.data)
    variants = [v for v in (args.variants.split(",") if args.variants else []) if v]
    results = ablate(cfg, manifest, trials, variants)
    out = _write_run_dir(args.out, cfg)
    table = ablation_table(results)
    (out / "ablation.txt").write_text(table + "\n")
    _write_csv(out / "ablation.csv", ["variant", "accuracy", "macro_f1"],
               [(name, rep.accuracy, rep.macro_f1) for name, rep in results])
    for name, rep in results:
        (out / f"metrics_{name}.json").write_text(rep.to_json())
    print(table)
    return 0


def _cmd_saliency(args) -> int:
    model, cfg, _, trials = _load_checkpoint_and_data(args)
    match = [t for t in trials if t.trial_id == args.trial_id]
    if not match:
        raise DataError(f"trial id {args.trial_id} not present in {args.data}")
    sal, per_sensor = saliency(model, match[0], args.target_class)
    out = _write_run_dir(args.out, cfg)
    np.savetxt(out / "saliency.csv", sal, delimiter=",")
    _write_csv(out / "saliency_per_sensor.csv", ["sensor", "max_saliency"],
               enumerate(per_sensor))
    print(f"saliency for trial {args.trial_id}, class {args.target_class} "
          f"written under {out}")
    return 0


def _cmd_export_features(args) -> int:
    model, cfg, _, trials = _load_checkpoint_and_data(args)
    header, rows = export_features(model, trials)
    out = _write_run_dir(args.out, cfg)
    _write_csv(out / "features.csv", header, rows)
    print(f"exported {len(rows)} feature rows to {out / 'features.csv'}")
    return 0


def _cmd_compare(args) -> int:
    def collect(paths, flag):
        vals = []
        for p in paths:
            path = Path(p)
            doc = _json_object(_read_store_file(path), f"{flag}: {path}")
            try:  # not a report's fields, or a value of the wrong type
                rep = MetricsReport(**doc)
            except (TypeError, ConfigError) as exc:
                raise DataError(f"{flag}: {path} is not a metrics report: {exc}") from exc
            val = getattr(rep, args.metric)
            try:
                finite = math.isfinite(val)
            except OverflowError:  # an int beyond float
                finite = False
            if not finite:
                raise DataError(f"{flag}: {path} has {args.metric} {val!r}, "
                                "not a finite number")
            vals.append(val)
        return np.array(vals)

    a = collect(args.a, "--a")
    b = collect(args.b, "--b")
    if a.size != b.size:
        raise ConfigError(f"--a has {a.size} reports but --b has {b.size}; "
                          "the test is paired")
    w, p = wilcoxon_signed_rank(a, b)
    print(f"W={w:g} p={p:.6g} (n={a.size}, metric={args.metric})")
    return 0


# --- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tmknet",
                     description="SPD-manifold gesture decoding with domain adaptation")
    parser.add_argument("--version", action="version", version=f"tmknet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic domain-shifted dataset")
    _add_field_flags(p, SynthSpec, _SYNTH_FLAGS)
    p.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("import", help="validate and copy a dataset directory")
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_import)

    p = sub.add_parser("train", help="train on all source sessions of the split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-target", action="store_true",
                   help="also adapt and evaluate the held-out session")
    _add_run_flags(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("adapt", help="accumulate target statistics (no labels)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one domain")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain", default=None, help="SUBJECT/SESSION; default: the split target")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate ablation variants")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", default=",".join(ABLATION_VARIANTS),
                   help="comma-separated subset of: " + ", ".join(ABLATION_VARIANTS))
    _add_run_flags(p)
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("saliency", help="input saliency map for one trial")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--trial-id", type=int, required=True)
    p.add_argument("--target-class", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_saliency)

    p = sub.add_parser("export-features", help="pre/post-DSBN tangent features as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_features)

    p = sub.add_parser("compare", help="paired Wilcoxon signed-rank over two report lists")
    p.add_argument("--a", nargs="+", required=True, help="metrics JSON files, side A")
    p.add_argument("--b", nargs="+", required=True, help="metrics JSON files, side B")
    p.add_argument("--metric", default="accuracy", choices=["accuracy", "macro_f1"])
    p.set_defaults(fn=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    set_blas_threads = _openblas("set_num_threads", None, ctypes.c_int)
    if set_blas_threads is not None:
        set_blas_threads(1)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every read raises DataError, so an output failed
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
