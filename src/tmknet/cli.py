"""Command-line interface.

Subcommands: synth, import, train, adapt, eval, ablate, saliency,
export-features, compare. Every run writes its outputs under --out together
with a config snapshot; re-running from that snapshot reproduces the metrics
bit for bit.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SynthSpec,
    leave_one_session_out,
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
    return int(env) if env else 0


_CONFIG_FLAGS = {
    "subject": int, "target_session": int, "n_t": int, "n_s": int, "n_b": int,
    "r_data": float, "pool_size": int, "lr": float, "weight_decay": float,
    "batch_size": int, "domains_per_batch": int, "epochs": int, "seed": int,
    "val_fraction": float, "adaptation": str, "gamma_source": float,
    "gamma_target": float,
}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
    defaults = RunConfig()
    for name, typ in _CONFIG_FLAGS.items():
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=typ, default=None,
                       help=f"default {getattr(defaults, name)}")
    p.add_argument("--shared-bn", action="store_true", default=None,
                   help="single shared SPD batch norm instead of domain-specific")
    p.add_argument("--ablation", default=None,
                   help=f"comma-separated variants from {', '.join(ABLATION_VARIANTS)}")


def _run_config(args: argparse.Namespace) -> RunConfig:
    valid = {f.name for f in fields(RunConfig)}
    doc: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise DataError(f"--config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DataError(f"--config {path} is not valid JSON: {exc}") from exc
        unknown = set(doc) - valid
        if unknown:
            raise ConfigError(f"--config {path} has unknown keys: {sorted(unknown)}")
    for name in _CONFIG_FLAGS:
        value = getattr(args, name)
        if value is not None:
            doc[name] = value
    if args.shared_bn is not None:
        doc["shared_bn"] = args.shared_bn
    if args.ablation is not None:
        doc["ablation"] = [v for v in args.ablation.split(",") if v]
    if "seed" not in doc:
        doc["seed"] = _default_seed()
    return RunConfig.from_doc(doc)


def _write_run_dir(out: Path, cfg: RunConfig) -> None:
    out.mkdir(parents=True, exist_ok=True)
    snapshot = {"config": cfg.to_doc(), "seed": cfg.seed, "config_hash": cfg.hash(),
                "build_id": build_id(cfg.hash())}
    (out / "config.json").write_text(json.dumps(snapshot, indent=2))


def _load_data(path: str):
    p = Path(path)
    if not p.exists():
        raise DataError(f"--data directory not found: {p}")
    return load_dataset(p)


def _parse_domain(text: str) -> tuple[int, int]:
    try:
        subject, session = text.split("/")
        return int(subject), int(session)
    except ValueError as exc:
        raise ConfigError(f"--domain must look like SUBJECT/SESSION, got {text!r}") from exc


# --- subcommand bodies ----------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_classes=args.classes, sensors=args.sensors, n_domains=args.domains,
        trials_per_cell=args.trials_per_cell, fs=args.fs, window_ms=args.window_ms,
        overlap_ms=args.overlap_ms, domain_shift=args.domain_shift,
        seed=args.seed if args.seed is not None else _default_seed(),
    )
    manifest, trials = synth_generate(spec)
    save_dataset(args.out, manifest, trials)
    print(f"wrote {len(trials)} trials ({manifest.sensors} sensors, "
          f"{manifest.n_classes} classes, {len(manifest.domains)} domains) to {args.out}")
    return 0


def _cmd_import(args) -> int:
    manifest, trials = _load_data(args.src)
    save_dataset(args.out, manifest, trials)
    print(f"validated and copied {len(trials)} trials to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _run_config(args)
    manifest, trials = _load_data(args.data)
    out = Path(args.out)
    _write_run_dir(out, cfg)
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
    model, cfg, manifest = load_checkpoint(args.checkpoint)
    _, trials = _load_data(args.data)
    target = (cfg.subject, args.target_session if args.target_session is not None
              else cfg.target_session)
    signals = np.stack([t.signal for t in trials if t.domain == target])
    if signals.size == 0:
        raise DataError(f"no trials for target domain {target} in {args.data}")
    adapt(model, signals.astype(np.float64), target, batch_size=cfg.batch_size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_run_dir(out, cfg)
    save_checkpoint(out / "checkpoint.tmk", model, cfg, manifest)
    print(f"adapted statistics for domain {domain_key(target)}; "
          f"checkpoint under {out}")
    return 0


def _cmd_eval(args) -> int:
    model, cfg, manifest = load_checkpoint(args.checkpoint)
    _, trials = _load_data(args.data)
    domain = _parse_domain(args.domain) if args.domain else (cfg.subject, cfg.target_session)
    chosen = [t for t in trials if t.domain == domain]
    if not chosen:
        raise DataError(f"no trials for domain {domain_key(domain)} in {args.data}")
    report = evaluate(model, chosen, manifest)
    report.seed = cfg.seed
    report.config_hash = cfg.hash()
    out = Path(args.out)
    _write_run_dir(out, cfg)
    (out / "metrics.json").write_text(report.to_json())
    print(f"domain {domain_key(domain)}: accuracy {report.accuracy:.4f}, "
          f"macro-F1 {report.macro_f1:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _run_config(args)
    manifest, trials = _load_data(args.data)
    variants = [v for v in (args.variants.split(",") if args.variants else []) if v]
    results = ablate(cfg, manifest, trials, variants)
    out = Path(args.out)
    _write_run_dir(out, cfg)
    table = ablation_table(results)
    (out / "ablation.txt").write_text(table + "\n")
    with open(out / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "accuracy", "macro_f1"])
        for name, rep in results:
            writer.writerow([name, rep.accuracy, rep.macro_f1])
    for name, rep in results:
        (out / f"metrics_{name}.json").write_text(rep.to_json())
    print(table)
    return 0


def _cmd_saliency(args) -> int:
    model, cfg, manifest = load_checkpoint(args.checkpoint)
    _, trials = _load_data(args.data)
    match = [t for t in trials if t.trial_id == args.trial_id]
    if not match:
        raise DataError(f"trial id {args.trial_id} not present in {args.data}")
    sal, per_sensor = saliency(model, match[0], args.target_class)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_run_dir(out, cfg)
    np.savetxt(out / "saliency.csv", sal, delimiter=",")
    with open(out / "saliency_per_sensor.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sensor", "max_saliency"])
        for i, v in enumerate(per_sensor):
            writer.writerow([i, v])
    print(f"saliency for trial {args.trial_id}, class {args.target_class} "
          f"written under {out}")
    return 0


def _cmd_export_features(args) -> int:
    model, cfg, manifest = load_checkpoint(args.checkpoint)
    _, trials = _load_data(args.data)
    header, rows = export_features(model, trials)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_run_dir(out, cfg)
    with open(out / "features.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"exported {len(rows)} feature rows to {out / 'features.csv'}")
    return 0


def _cmd_compare(args) -> int:
    def collect(paths, flag):
        vals = []
        for p in paths:
            path = Path(p)
            if not path.exists():
                raise DataError(f"{flag}: file not found: {path}")
            rep = MetricsReport.from_json(path.read_text())
            vals.append(getattr(rep, args.metric))
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
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--sensors", type=int, default=8)
    p.add_argument("--domains", type=int, default=4)
    p.add_argument("--trials-per-cell", type=int, default=50,
                   help="trials per (class, domain) cell")
    p.add_argument("--fs", type=float, default=256.0)
    p.add_argument("--window-ms", type=float, default=250.0)
    p.add_argument("--overlap-ms", type=float, default=125.0)
    p.add_argument("--domain-shift", type=float, default=1.4)
    p.add_argument("--seed", type=int, default=None, help="default TMKNET_SEED or 0")
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
    p.add_argument("--target-session", type=int, default=None)
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


if __name__ == "__main__":
    sys.exit(main())
