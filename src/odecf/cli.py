"""Experiment runner: data preparation, training, evaluation, sweeps and gradient checks.

Configuration is a flat key=value text file; any field can be overridden on
the command line with --set key=value. ``method`` picks the model: euler or
rk4 for GODE-CF, lightgcn for the baseline; ``n_hops`` is its highest power of
the adjacency. Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

# before numpy loads, one BLAS thread unless set: ranking scans on two threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__
from .data import (
    DataError,
    SplitDataset,
    column_positions,
    k_core_filter,
    leave_one_out_split,
    parse_interactions,
    train_pairs,
)
from .evaluation import evaluate
from .graph import build_adjacency
from .model import ModelState, SolverConfig, final_embeddings, init_embeddings
from .train import TrainConfig, TrainError, fit, finite_difference_check, sample_triplets

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

OUTPUT_ROOT_ENV = "ODECF_OUTPUT_ROOT"

GRADCHECK_TOLERANCE = 1e-5

# A '#' opens a config-file comment at the start of a line or after whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


class ConfigError(ValueError):
    """Raised for unparseable or invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    columns: str = "user,item,time"
    method: str = "euler"
    t1: float = 0.9
    steps: int = 1
    n_hops: int = 2
    use_weights: bool = False
    dims: int = 128
    init_std: float = 0.1
    learning_rate: float = 0.001
    l2_lambda: float = 1e-4
    batch_size: int = 2048
    max_epochs: int = 1000
    patience: int = 50
    seed: int = 42
    k_core: int = 5
    k_core_users_only: bool = False
    eval_n: str = "10,20"
    outdir: str = "run"
    log_timing: bool = True

    def eval_n_list(self) -> list[int]:
        try:
            values = [int(x) for x in self.eval_n.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"field 'eval_n': cannot parse {self.eval_n!r}: {exc}") from exc
        if not values or any(n < 1 for n in values):
            raise ConfigError(f"field 'eval_n': needs positive cutoffs, got {self.eval_n!r}")
        return values

    def validate(self) -> None:
        for name, value in vars(self).items():  # config.txt must read each string back whole
            if isinstance(value, str) and _COMMENT.search(value):
                raise ConfigError(f"field {name!r}: {value!r} has a '#' at its start or "
                                  "after whitespace, which config.txt would read as a comment")
        if not self.dataset:
            raise ConfigError("field 'dataset': no interaction file configured")
        if not Path(self.dataset).exists():
            raise ConfigError(f"field 'dataset': file not found: {self.dataset}")
        try:
            column_positions(self.columns)
        except DataError as exc:
            raise ConfigError(f"field 'columns': {exc}") from exc
        if self.dims < 1:
            raise ConfigError(f"field 'dims': must be >= 1, got {self.dims}")
        if not (np.isfinite(self.init_std) and self.init_std > 0):
            raise ConfigError(f"field 'init_std': must be positive and finite, got {self.init_std}")
        if self.k_core < 1:
            raise ConfigError(f"field 'k_core': must be >= 1, got {self.k_core}")
        self.eval_n_list()
        try:
            self.solver_config()
            self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def solver_config(self) -> SolverConfig:
        return SolverConfig(method=self.method, t1=self.t1, steps=self.steps,
                            n_hops=self.n_hops, use_weights=self.use_weights)

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate, l2_lambda=self.l2_lambda,
                           batch_size=self.batch_size, max_epochs=self.max_epochs,
                           patience=self.patience, seed=self.seed)


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ConfigError(f"unknown config field {name!r}")
    raw = raw.strip()
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"field {name!r}: cannot parse {raw!r} as bool")
    if kind == "str":
        return raw
    try:
        return (int if kind == "int" else float)(raw)
    except ValueError as exc:
        raise ConfigError(f"field {name!r}: cannot parse {raw!r} as {kind}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """Build a config from an optional file plus 'key=value' override strings."""
    merged: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        merged.update(parse_config_text(text))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    cfg = ExperimentConfig()
    typed = {name: _coerce(name, raw) for name, raw in merged.items()}
    return replace(cfg, **typed)


def config_echo(cfg: ExperimentConfig) -> str:
    lines = []
    for f in sorted(fields(ExperimentConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# Fields that change neither the data, the graph nor the trained model.
_UNHASHED = ("outdir", "log_timing", "eval_n")


def config_hash(cfg: ExperimentConfig) -> str:
    """Identity of the data, graph and trained model a config produces."""
    lines = [line for line in config_echo(cfg).splitlines()
             if line.split(" = ", 1)[0] not in _UNHASHED]
    return hashlib.md5("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def resolve_outdir(outdir: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(outdir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def build_dataset(cfg: ExperimentConfig):
    log, stats = parse_interactions(cfg.dataset, cfg.columns)
    log = k_core_filter(log, cfg.k_core, users_only=cfg.k_core_users_only)
    ds = leave_one_out_split(log)
    return ds, stats


def build_state(cfg: ExperimentConfig, ds):
    adjacency = build_adjacency(ds, allow_isolated_items=True)
    e0 = init_embeddings(ds.n_users + ds.n_items, cfg.dims, cfg.init_std, cfg.seed)
    return ModelState.create(e0, adjacency, cfg.solver_config())


# The run directory: every file a run writes or reads back is written and parsed
# in this module. _RUN_FILES are the files run_experiment writes, in manifest order.
_RUN_FILES = ("config.txt", "train_log.csv", "metrics.csv", "checkpoint.emb", "checkpoint_meta.txt")


def write_split(ds: SplitDataset, outdir) -> None:
    """Write train/val/test text files plus the key->id maps."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    np.savetxt(outdir / "train.txt", np.column_stack(train_pairs(ds)), fmt="%d")
    for name, column in (("val.txt", ds.validation), ("test.txt", ds.test)):
        np.savetxt(outdir / name, np.column_stack((np.arange(ds.n_users), column)), fmt="%d")
    for name, index in (("user_map.txt", ds.user_index), ("item_map.txt", ds.item_index)):
        text = "".join(f"{key}\t{idx}\n" for key, idx in sorted(index.items(), key=lambda kv: kv[1]))
        (outdir / name).write_text(text, encoding="utf-8")


def write_training_log(path, history, log_timing: bool = True) -> None:
    """CSV training curve: epoch,loss,recall20,ndcg20,seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,recall20,ndcg20,seconds\n")
        for r in history:
            seconds = repr(round(float(r.seconds), 3)) if log_timing else "0.0"
            fh.write(f"{r.epoch},{float(r.loss)!r},{float(r.recall20)!r},"
                     f"{float(r.ndcg20)!r},{seconds}\n")


def write_metrics_csv(path, entries) -> None:
    """CSV rows 'mode,N,recall,ndcg,users' for (mode, MetricsReport) pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode,N,recall,ndcg,users\n")
        for mode, report in entries:
            for n, recall, ndcg in zip(report.n_values, report.recall, report.ndcg):
                fh.write(f"{mode},{n},{float(recall)!r},{float(ndcg)!r},{report.users_evaluated}\n")


def _write_replacing(path: Path, write) -> None:
    """Run ``write(tmp)`` on a sibling temp file, then move it over ``path``, so
    a failed write leaves the previous file in place."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(outdir, state, epoch: int, metric: float, config_hash: str) -> None:
    """Persist e0 as ``checkpoint.emb`` (numpy ``.npy`` format) and the metadata,
    with the hop weights when they train, as ``checkpoint_meta.txt``. Each file
    is written to a temp file and then moved into place.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def write_e0(tmp):
        with open(tmp, "wb") as fh:  # np.save given a path would append ".npy"
            np.save(fh, state.e0)

    _write_replacing(outdir / "checkpoint.emb", write_e0)
    text = f"epoch={epoch}\nmetric={metric!r}\nconfig_hash={config_hash}\n"
    if state.hop_weights is not None:
        text += "hop_weights=" + ",".join(repr(float(w)) for w in state.hop_weights) + "\n"
    _write_replacing(outdir / "checkpoint_meta.txt",
                     lambda tmp: tmp.write_text(text, encoding="utf-8"))


def read_checkpoint_meta(indir) -> dict[str, str]:
    """The key=value pairs of ``checkpoint_meta.txt`` in ``indir``."""
    meta = {}
    with open(Path(indir) / "checkpoint_meta.txt", "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, value = line.rstrip("\n").split("=", 1)
                meta[key] = value
    return meta


def load_checkpoint(indir):
    """Read back (e0, hop_weights or None, metadata dict); :class:`TrainError`
    when ``checkpoint.emb`` is no complete ``.npy`` array or a hop weight no float."""
    path = Path(indir) / "checkpoint.emb"
    meta = read_checkpoint_meta(indir)
    try:
        e0 = np.load(path)
        weights = meta.get("hop_weights")
        weights = None if weights is None else np.array([float(w) for w in weights.split(",")])
    except (ValueError, EOFError) as exc:
        raise TrainError(f"checkpoint {path} (with the hop_weights of its meta file) "
                         f"is unreadable: {exc}") from exc
    return e0, weights, meta


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Full data -> graph -> fit -> evaluate pipeline; returns the run directory."""
    cfg.validate()
    outdir = resolve_outdir(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    (outdir / "config.txt").write_text(config_echo(cfg), encoding="utf-8")

    ds, stats = build_dataset(cfg)
    print(f"dataset: {ds.n_users} users, {ds.n_items} items, "
          f"{ds.n_train_interactions()} train interactions "
          f"(parsed={stats.parsed} dup={stats.duplicates} malformed={stats.malformed})")

    state = build_state(cfg, ds)
    n_values = cfg.eval_n_list()
    if 20 not in n_values:  # early stopping and the sweep table read N=20
        n_values.append(20)
    reports = []  # one per recorded epoch: fit appends a record for each report returned

    def validation_hook(current):
        reports.append(evaluate(final_embeddings(current), ds, "validation", n_values))
        return reports[-1]

    history, best = fit(ds, state, cfg.train_config(), validation_hook)
    if not history and cfg.max_epochs >= 1:
        raise TrainError("training diverged in epoch 1; no checkpoint written")
    write_training_log(outdir / "train_log.csv", history, log_timing=cfg.log_timing)

    fe = final_embeddings(best)
    if history:
        at = max(range(len(history)), key=lambda k: history[k].ndcg20)  # fit's best state
        best_epoch, best_metric = history[at].epoch, history[at].ndcg20
        val_report = reports[at]  # the best state's validation ranks, already aggregated
    else:
        best_epoch, best_metric = 0, float("nan")
        val_report = evaluate(fe, ds, "validation", n_values)
    test_report = evaluate(fe, ds, "test", n_values)
    write_metrics_csv(outdir / "metrics.csv",
                      [("validation", val_report), ("test", test_report)])

    save_checkpoint(outdir, best, best_epoch, best_metric, config_hash(cfg))
    (outdir / "manifest.txt").write_text("".join(name + "\n" for name in _RUN_FILES),
                                         encoding="utf-8")

    for n, recall, ndcg in zip(test_report.n_values, test_report.recall, test_report.ndcg):
        print(f"test recall@{n}={recall:.6f} ndcg@{n}={ndcg:.6f}")
    print(f"run artifacts in {outdir}")
    return outdir


def _sweep_values(param: str | None, values: str | None) -> list:
    if not param:
        raise ConfigError("--param: no sweep parameter given")
    if param not in _FIELD_TYPES or param == "outdir":
        raise ConfigError(f"--param: cannot sweep {param!r}")
    raw = (values or "").replace(",", " ").split()
    if not raw:
        raise ConfigError("--values: no values given")
    for x in raw:  # each run's directory is <outdir>/<param>=<value>, one level down
        if any(sep and sep in x for sep in ("/", os.sep, os.altsep)):
            raise ConfigError(f"--values: {x!r} holds a path separator")
    typed = [_coerce(param, x) for x in raw]
    for k, value in enumerate(typed):  # equal values would share one run directory
        if value in typed[:k]:
            raise ConfigError(f"--values: {raw[k]!r} repeats the value {value!r}")
    return typed


def run_sweep(cfg: ExperimentConfig, param: str, values: str, parallel: int = 1) -> Path:
    """One run per value of field ``param`` on ``parallel`` worker processes, each
    in its own subdirectory of ``cfg.outdir``, then a consolidated table."""
    if parallel < 1:
        raise ConfigError(f"--parallel: need at least 1 worker, got {parallel}")
    # run_experiment resolves each run's outdir, so it extends the unresolved one
    run_cfgs = [replace(cfg, outdir=str(Path(cfg.outdir) / f"{param}={value}"), **{param: value})
                for value in _sweep_values(param, values)]
    for run_cfg in run_cfgs:  # every run is checked before any starts
        run_cfg.validate()
    base = resolve_outdir(cfg.outdir)
    base.mkdir(parents=True, exist_ok=True)
    with ProcessPoolExecutor(max_workers=parallel) as pool:
        list(pool.map(run_experiment, run_cfgs))
    emit_sweep_table(base, field=param)
    return base


def _read_run_row(run_dir: Path) -> str:
    field, value = run_dir.name.split("=", 1)
    metrics = {}
    with open(run_dir / "metrics.csv", "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("mode,N,"):
            raise ValueError(f"unexpected metrics header {header!r}")
        for line in fh:
            mode, n, recall, ndcg, _ = line.rstrip("\n").split(",")
            metrics[(mode, int(n))] = (recall, ndcg)
    recall20, ndcg20 = metrics[("test", 20)]
    meta = read_checkpoint_meta(run_dir)
    seconds = 0.0
    with open(run_dir / "train_log.csv", "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            seconds += float(line.rstrip("\n").split(",")[4])
    return f"{field},{value},{recall20},{ndcg20},{meta['epoch']},{seconds!r}"


def emit_sweep_table(results_dir, field=None) -> Path:
    """Consolidate the ``<field>=<value>`` run directories under ``results_dir``
    (only those of ``field`` when given) into one ``sweep.csv`` row per completed run."""
    results_dir = Path(results_dir)
    run_dirs = sorted(
        p for p in results_dir.iterdir()
        if p.is_dir() and (p / "config.txt").exists() and "=" in p.name
        and field in (None, p.name.split("=", 1)[0])
    ) if results_dir.is_dir() else []
    rows = []
    for run_dir in run_dirs:
        try:
            rows.append(_read_run_row(run_dir))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            print(f"warning: skipping malformed run directory {run_dir}: {exc}",
                  file=sys.stderr)
    if not rows:
        raise DataError(f"no completed run directories under {results_dir}")
    out_csv = results_dir / "sweep.csv"
    with open(out_csv, "w", encoding="utf-8") as fh:
        fh.write("field,value,recall20,ndcg20,epochs_to_best,seconds\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"sweep table: {out_csv} ({len(rows)} runs)")
    return out_csv


def run_gradcheck(seed: int = 0) -> float:
    """Finite-difference audit of the training gradients on a small random instance.

    Covers {euler, rk4} x n_hops {1,2,3} x weights {on, off}; prints the max
    relative error per combination and returns the overall worst.
    """
    from .data import synthetic_split

    rng = np.random.default_rng(seed)
    ds = synthetic_split(n_users=10, n_items=12, seed=seed, min_train=3, max_train=5)
    adjacency = build_adjacency(ds)
    worst = 0.0
    for method in ("euler", "rk4"):
        for n_hops in (1, 2, 3):
            for use_weights in (False, True):
                solver = SolverConfig(method=method, t1=0.9, steps=2,
                                      n_hops=n_hops, use_weights=use_weights)
                e0 = init_embeddings(ds.n_users + ds.n_items, 4, 0.5,
                                     seed + 17 * n_hops)
                state = ModelState.create(e0, adjacency, solver)
                if use_weights:
                    state.hop_weights += rng.normal(0.0, 0.1, size=n_hops)
                batch = sample_triplets(ds, 24, np.random.default_rng(seed + 1))
                err = finite_difference_check(state, batch, l2_lambda=1e-3)
                worst = max(worst, err)
                print(f"gradcheck method={method} n_hops={n_hops} "
                      f"weights={'on' if use_weights else 'off'}: max_rel_err={err:.3e}")
    status = "OK" if worst < GRADCHECK_TOLERANCE else "FAIL"
    print(f"gradcheck overall max_rel_err={worst:.3e} tolerance={GRADCHECK_TOLERANCE:.0e} [{status}]")
    return worst


def _load_config(args) -> ExperimentConfig:
    """A verb's config: --config, then --set, then its --dataset/--input and --outdir."""
    cfg = load_config(args.config, args.set or [])
    given = {name: getattr(args, name, None) for name in ("dataset", "outdir")}
    return replace(cfg, **{name: value for name, value in given.items() if value})


def _cmd_prepare_data(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    ds, stats = build_dataset(cfg)
    outdir = resolve_outdir(cfg.outdir)
    write_split(ds, outdir)
    print(f"parsed={stats.parsed} duplicates={stats.duplicates} malformed={stats.malformed}")
    print(f"split: {ds.n_users} users, {ds.n_items} items, "
          f"{ds.n_train_interactions()} train interactions -> {outdir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    run_experiment(_load_config(args))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    ds, _ = build_dataset(cfg)
    adjacency = build_adjacency(ds, allow_isolated_items=True)
    e0, weights, meta = load_checkpoint(resolve_outdir(args.checkpoint))
    state = ModelState(e0=e0, hop_weights=weights, adjacency=adjacency, solver=cfg.solver_config())
    report = evaluate(final_embeddings(state), ds, args.mode, cfg.eval_n_list())
    for n, recall, ndcg in zip(report.n_values, report.recall, report.ndcg):
        print(f"{args.mode} recall@{n}={recall:.6f} ndcg@{n}={ndcg:.6f}")
    if args.out:
        write_metrics_csv(args.out, [(args.mode, report)])
        print(f"metrics written to {args.out}")
    if meta.get("config_hash") and meta["config_hash"] != config_hash(cfg):
        print("note: checkpoint was trained under a different config", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if args.table_only:
        emit_sweep_table(resolve_outdir(cfg.outdir))
        return EXIT_OK
    run_sweep(cfg, args.param, args.values, parallel=args.parallel)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    worst = run_gradcheck(seed=args.seed)
    return EXIT_OK if worst < GRADCHECK_TOLERANCE else EXIT_RUNTIME


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are configuration errors
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="odecf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"odecf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (repeatable)")

    p = sub.add_parser("prepare-data", help="parse, k-core filter and split a raw file")
    add_common(p)
    p.add_argument("--input", dest="dataset", help="raw interaction file (overrides 'dataset')")
    p.add_argument("--outdir", help="directory for the split files")
    p.set_defaults(handler=_cmd_prepare_data)

    p = sub.add_parser("train", help="run the full training pipeline")
    add_common(p)
    p.add_argument("--dataset", help="raw interaction file (overrides 'dataset')")
    p.add_argument("--outdir", help="run directory")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True, help="run directory with checkpoint files")
    p.add_argument("--dataset", help="raw interaction file (overrides 'dataset')")
    p.add_argument("--mode", choices=("validation", "test"), default="test")
    p.add_argument("--out", help="optional metrics CSV path")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("sweep", help="grid sweep over one config field")
    add_common(p)
    p.add_argument("--param", help="config field to sweep (needed unless --table-only)")
    p.add_argument("--values", help="comma-separated values (needed unless --table-only)")
    p.add_argument("--outdir", help="base directory for the runs")
    p.add_argument("--parallel", type=int, default=1,
                   help="run the sweep on N worker processes (at least 1)")
    p.add_argument("--table-only", action="store_true",
                   help="only rebuild the consolidated table from existing runs")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the gradients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
