"""Command-line entry point: collection, simulation, and analysis
subcommands producing machine-readable report files.

Every subcommand reads its inputs without modifying them and writes reports
under --out; all randomness flows from the config plus the --seed override,
so equal invocations produce byte-identical outputs.

Configs are JSON objects keyed by the fields of the dataclasses they fill
(``simulate``: FarmConfig; ``collect``: SessionDevice and SessionConfig). An
omitted key takes the field's default; an unknown or missing key, or a value
of the wrong JSON type, exits 1 naming the key. Flags override the config.

Exit codes: 0 success, 1 error or aborted session, 2 completed
degraded-mode collection.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import analysis, schema
from .collector import (
    DegradedEnvironment,
    HostAdapter,
    SessionConfig,
    SessionError,
    VirtualAdapter,
    run_session,
)
from .simulator import (
    DEFAULT_START_TIME,
    DeviceModelSpec,
    farm_config_from_json,
    json_kwargs,
    make_device,
    make_farm,
    simulate_dataset,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2


class CommandError(RuntimeError):
    pass


def _load_json(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise CommandError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CommandError(f"invalid JSON in {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _info(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


@dataclasses.dataclass(frozen=True)
class SessionDevice:
    """The device keys of a session config; its other keys are the
    :class:`SessionConfig` fields but ``device_mac`` and ``device_model``."""

    mac: str
    model: str
    kind: str = "host"
    model_spec: DeviceModelSpec | None = None  # required when kind is simulated
    device_seed: int = 0
    start_time: float = DEFAULT_START_TIME


# The SessionDevice keys that only a simulated device reads.
_SIMULATED_KEYS = frozenset({"model_spec", "device_seed", "start_time"})


def cmd_collect(args) -> int:
    own, session = json_kwargs(_load_json(args.config), "session config", SessionDevice,
                               SessionConfig, exclude=("device_mac", "device_model"))
    device = SessionDevice(**own)
    flags = {"working_dir": args.out, "samples_per_session": args.samples, "seed": args.seed,
             "allow_degraded": args.allow_degraded or None}
    session.update({k: v for k, v in flags.items() if v is not None})
    config = SessionConfig(device.mac, device.model, **session)
    if device.kind == "simulated":
        if device.model_spec is None:
            raise CommandError("session config: missing keys ['model_spec'] for kind simulated")
        virtual = make_device(device.model_spec, config.device_mac, device.device_seed)
        adapter = VirtualAdapter.for_device(virtual, device.start_time, sample_seed=config.seed)
    elif device.kind == "host":
        ignored = sorted(_SIMULATED_KEYS & own.keys())
        if ignored:
            raise CommandError(f"session config: keys {ignored} apply only to kind simulated")
        adapter = HostAdapter(config)
    else:
        raise CommandError(f"unknown device kind {device.kind!r}; expected simulated or host")

    result = run_session(config, adapter)
    _info(args, f"wrote {result.rows_written} rows to {result.csv_path}")
    if result.aborted:
        print(f"error: session aborted: {result.abort_reason}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_DEGRADED if result.degraded else EXIT_OK


def cmd_simulate(args) -> int:
    flags = {"master_seed": args.seed, "samples_per_device": args.samples_per_device}
    config = dataclasses.replace(farm_config_from_json(_load_json(args.config)),
                                 **{k: v for k, v in flags.items() if v is not None})
    farm = make_farm(config)
    dataset = simulate_dataset(farm, config.samples_per_device, config.start_time)
    out_dir = Path(args.out)
    schema.write_dataset(dataset, out_dir)
    _info(args, f"simulated {len(farm)} devices x {config.samples_per_device} samples into {out_dir}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    dataset = schema.read_dataset(args.dataset_dir)
    matrix = analysis.clustering_matrix(dataset)
    normalized, _ = analysis.minmax_fit_transform(matrix)
    projected = analysis.pca(normalized)
    result = analysis.kmeans(projected.projection, k=args.k, seed=args.seed)
    purity, per_cluster = analysis.cluster_purity(result.assignments, matrix.labels)

    out_dir = Path(args.out)
    _write_json(
        out_dir / "cluster_report.json",
        {
            "k": args.k,
            "seed": args.seed,
            "n_rows": matrix.n_rows,
            "purity": purity,
            "cluster_sizes": result.sizes.tolist(),
            "clusters": per_cluster,
            "explained_variance_ratio": projected.explained_variance_ratio[:10].tolist(),
            "wcss": result.wcss,
        },
    )
    with open(out_dir / "projections.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,cluster,label\n")
        for (x, y), cluster, label in zip(projected.projection, result.assignments, matrix.labels):
            fh.write(f"{schema.format_value(x)},{schema.format_value(y)},{cluster},{label}\n")
    _info(args, f"purity {purity:.4f}, sizes {result.sizes.tolist()}")
    return EXIT_OK


def cmd_identify(args) -> int:
    dataset = schema.read_dataset(args.dataset_dir)
    matrix = analysis.identification_matrix(dataset)
    train, test = analysis.split(matrix, seed=args.seed)
    normalized = args.algo == "knn"
    if normalized:
        train, params = analysis.minmax_fit_transform(train)
        test = analysis.minmax_apply(test, params)
    model = analysis.train_classifier(args.algo, train, seed=args.seed)
    report = analysis.evaluate(model, test)

    out_dir = Path(args.out)
    _write_json(
        out_dir / "identification_report.json",
        {
            "algo": args.algo,
            "seed": args.seed,
            "normalized": normalized,
            "train_rows": train.n_rows,
            "test_rows": test.n_rows,
            **report.to_json(),
        },
    )
    with open(out_dir / "confusion_matrix.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("true_label," + ",".join(report.classes) + "\n")
        for i, cls in enumerate(report.classes):
            fh.write(cls + "," + ",".join(str(int(v)) for v in report.confusion[i]) + "\n")
    _info(args, f"{args.algo}: macro-F1 {report.macro_f1:.4f}")
    return EXIT_OK


def cmd_correlate(args) -> int:
    dataset = schema.read_dataset(args.dataset_dir)
    known = [dev.mac for dev in dataset.devices]
    macs = [schema.canonical_mac(args.mac)] if args.mac else known
    missing = set(macs).difference(known)
    if missing:
        raise CommandError(f"no such device in dataset: {sorted(missing)}")
    matrix = analysis.build_matrix(dataset, "mac", include_temperature=True)
    reports = {}
    for mac in macs:
        device_rows = matrix.select_rows(matrix.labels == mac)
        reports[mac] = analysis.correlation_report(device_rows).to_json()
    _write_json(Path(args.out) / "correlation_report.json", {"devices": reports})
    _info(args, f"correlated {len(reports)} devices")
    return EXIT_OK


def cmd_density(args) -> int:
    dataset = schema.read_dataset(args.dataset_dir)
    summary = analysis.density_summary(dataset, args.feature, model=args.model)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"density_{args.feature}.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("mac,bin_index,bin_left,bin_right,count\n")
        edges = summary.bin_edges
        for device in summary.devices:
            for b, count in enumerate(device.counts):
                fh.write(
                    f"{device.mac},{b},{schema.format_value(edges[b])},"
                    f"{schema.format_value(edges[b + 1])},{int(count)}\n"
                )
    _write_json(
        out_dir / f"density_{args.feature}_stats.json",
        {
            "feature": args.feature,
            "model": args.model,
            "bin_edges": [float(e) for e in summary.bin_edges],
            "devices": {
                d.mac: {"mean": d.mean, "std": d.std, "n": d.n} for d in summary.devices
            },
        },
    )
    _info(args, f"histograms for {len(summary.devices)} devices")
    return EXIT_OK


def cmd_inspect(args) -> int:
    dataset = schema.read_dataset(args.dataset_dir)
    models: dict[str, int] = {}
    for dev in dataset.devices:
        models[dev.model] = models.get(dev.model, 0) + 1
    payload = {
        "directory": str(Path(args.dataset_dir)),
        "schema_columns": schema.DEFAULT_SCHEMA.n_columns,
        "total_samples": dataset.n_samples,
        "devices": [
            {"mac": dev.mac, "model": dev.model, "samples": len(dataset.rows(dev.mac))}
            for dev in dataset.devices
        ],
        "models": models,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_json(Path(args.out) / "dataset_summary.json", payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbench",
        description="Cross-component hardware benchmarking and fingerprinting toolkit",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="progress output on stderr")
    # Accept -v after the subcommand too; SUPPRESS keeps the top-level value
    # when the subcommand does not repeat the flag.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    collect = sub.add_parser("collect", help="run one measurement session")
    collect.add_argument("--config", required=True, help="session config JSON")
    collect.add_argument("--out", help="dataset directory (default: config working_dir)")
    collect.add_argument("--samples", type=int, help="override samples per session")
    collect.add_argument("--seed", type=int, help="override session seed")
    collect.add_argument("--allow-degraded", action="store_true",
                         help="proceed without stability measures")
    collect.set_defaults(handler=cmd_collect)

    simulate = sub.add_parser("simulate", help="generate a synthetic fleet dataset")
    simulate.add_argument("--config", required=True, help="farm config JSON")
    simulate.add_argument("--out", required=True, help="output dataset directory")
    simulate.add_argument("--seed", type=int, help="override master seed")
    simulate.add_argument("--samples-per-device", type=int)
    simulate.set_defaults(handler=cmd_simulate)

    cluster = sub.add_parser("cluster", help="PCA + k-means model clustering")
    cluster.add_argument("dataset_dir")
    cluster.add_argument("--out", required=True)
    cluster.add_argument("--k", type=int, default=4)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.set_defaults(handler=cmd_cluster)

    identify = sub.add_parser("identify", help="per-device classification")
    identify.add_argument("dataset_dir")
    identify.add_argument("--out", required=True)
    identify.add_argument("--algo", default="random_forest",
                          choices=analysis.CLASSIFIER_KINDS)
    identify.add_argument("--seed", type=int, default=0)
    identify.set_defaults(handler=cmd_identify)

    correlate = sub.add_parser("correlate", help="per-device temperature correlation")
    correlate.add_argument("dataset_dir")
    correlate.add_argument("--out", required=True)
    correlate.add_argument("--mac", help="only this device (default: all)")
    correlate.set_defaults(handler=cmd_correlate)

    density = sub.add_parser("density", help="per-device histograms of one feature")
    density.add_argument("dataset_dir")
    density.add_argument("--out", required=True)
    density.add_argument("--feature", required=True)
    density.add_argument("--model", help="restrict pooling to one model")
    density.set_defaults(handler=cmd_density)

    inspect = sub.add_parser("inspect", help="summarize a dataset directory")
    inspect.add_argument("dataset_dir")
    inspect.add_argument("--out")
    inspect.set_defaults(handler=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (
        CommandError,
        DegradedEnvironment,
        SessionError,
        schema.DatasetError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
