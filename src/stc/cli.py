"""Command-line surface: gen, saliency, run, stage, eval.

`gen` materializes a synthetic dataset, `saliency` precomputes maps for
simple images, `run` executes the full three-stage pipeline, `stage` runs
one of its stages from the previous stage's checkpoint, and `eval` scores a
checkpoint. All commands exit 0 on success; on failure they print a message
on stderr and exit 1 for bad input (usage errors too) or 2 for a failed stage.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import data, pipeline
from .imageio import write_atomic, write_pgm
from .network import OUTPUT_STRIDE, check_layers
from .params import load_params, save_params
from .pipeline import PipelineError, TrainConfig

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}


def load_run_config(path) -> TrainConfig:
    """The TrainConfig of one JSON object of its fields; a key left out takes
    its default. `TrainConfig` checks every value, as it does for the
    library, and each error starts with the file name."""
    doc = _read_json_object(path, "config")
    unknown = sorted(set(doc) - _TRAIN_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    try:
        return TrainConfig(**doc)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file `path`, `what` naming it in the error."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as e:
        raise ValueError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return doc


def _load_network(path):
    """A checkpoint whose parameters pass `network.check_layers`, checked
    against its JSON sidecar (`<ckpt>.json`) when there is one."""
    net = load_params(path)
    try:
        check_layers(net)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    sidecar = Path(path).with_suffix(".json")
    if sidecar.is_file():
        _check_sidecar(net, sidecar)
    return net


def _check_sidecar(net, path) -> None:
    """The sidecar's architecture fields equal those of the weights."""
    doc = _read_json_object(path, "checkpoint sidecar")
    for field, value in _architecture(net).items():
        if field not in doc:
            raise ValueError(f"{path}: missing field {field!r}")
        if doc[field] != value:
            raise ValueError(
                f"{path}: field {field!r} is {json.dumps(doc[field])}, but the "
                f"checkpoint's weights give {json.dumps(value)}"
            )


def _architecture(net) -> dict:
    """The sidecar fields read off the weight shapes."""
    num_classes, channels = check_layers(net)
    kernel_size = net["conv1.weight"].value.shape[2]
    return {"num_classes": num_classes, "channels": list(channels), "kernel_size": kernel_size}


def cmd_gen(args) -> int:
    if args.simple < 1:
        raise ValueError("--simple must be >= 1: the initial stage trains on simple images")
    if args.complex < 0 or args.eval < 0:
        raise ValueError("--complex and --eval must be >= 0")
    if not 1 <= args.classes <= data.MAX_CLASSES:
        raise ValueError(f"--classes must be 1..{data.MAX_CLASSES}, got {args.classes}")
    if args.classes < 2 and (args.complex or args.eval):
        raise ValueError(f"--complex and --eval need --classes >= 2, got {args.classes}")
    if args.size < 1 or args.size % OUTPUT_STRIDE:
        raise ValueError(f"--size must be a positive multiple of {OUTPUT_STRIDE} (output stride)")
    manifest = Path(args.out) / "manifest.jsonl"
    if manifest.exists():
        raise ValueError(f"{manifest}: already exists; --out takes a new dataset")
    examples = data.build_dataset(
        args.simple, args.complex, args.eval, args.classes, args.seed, args.size
    )
    records = data.write_dataset(examples, args.out)
    counts = {s: sum(1 for r in records if r.split == s) for s in data.SPLITS}
    print(
        f"wrote {len(records)} records to {args.out} "
        f"({counts['simple']} simple, {counts['complex']} complex, {counts['eval']} eval)"
    )
    return 0


def cmd_saliency(args) -> int:
    manifest = data.read_dataset(args.data)
    root, simple = manifest.root, manifest.split("simple").records
    maps = pipeline._parallel_map(
        lambda rec: pipeline._saliency_bytes(manifest.load_image_bytes(rec)), simple
    )
    (root / "saliency").mkdir(exist_ok=True)
    stored = {}
    for rec, saliency in zip(simple, maps):
        rel = f"saliency/{Path(rec.image).stem}.pgm"
        write_pgm(root / rel, saliency)
        stored[rec.image] = dataclasses.replace(rec, saliency=rel)
    data.write_manifest(root, [stored.get(rec.image, rec) for rec in manifest.records])
    print(f"wrote saliency maps for {len(simple)} simple images under {root / 'saliency'}")
    return 0


def _write_checkpoint(out: Path, stage: str, net, seed: int) -> Path:
    """Writes the checkpoint and a JSON sidecar whose architecture fields
    are read off the network's weight shapes."""
    path = out / f"checkpoint_{stage}.stcp"
    save_params(net, path)
    sidecar = {**_architecture(net), "seed": seed}
    write_atomic(path.with_suffix(".json"), json.dumps(sidecar, indent=2) + "\n")
    return path


def _prepare(args):
    """The run's TrainConfig (the `--config` file's, else the defaults, with
    `--seed` when given), the `--data` dataset's splits and the `--out` path
    of `run` and `stage`; `run_stage` creates the directory."""
    config = load_run_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    manifest = data.read_dataset(args.data)
    splits = [manifest.split(s) for s in ("simple", "complex", "eval")]
    return config, splits, Path(args.out)


def cmd_run(args) -> int:
    config, splits, out = _prepare(args)
    nets, reports = pipeline.run_stc(*splits, config, out_dir=out)
    for stage in pipeline.STAGES:
        _write_checkpoint(out, stage, nets[stage], config.seed)
    pipeline.write_report_json(reports, out / "report.json", config.seed)
    pipeline.write_report_csv(reports, out / "report.csv")
    for r in reports:
        print(f"{r.stage}: miou {r.miou:.4f} ({r.seconds:.1f}s)")
    return 0


def cmd_stage(args) -> int:
    if args.stage == "initial" and args.params:
        raise ValueError("stage 'initial' trains on saliency maps and takes no --params")
    if args.stage != "initial" and not args.params:
        raise ValueError(f"stage {args.stage!r} needs --params from the previous stage")
    prior = _load_network(args.params) if args.params else None
    config, splits, out = _prepare(args)
    corpus = pipeline.load_corpus(*splits, config)
    pipeline._trained_on(args.stage, corpus, config)  # its error is not about --params
    try:
        pipeline.check_prior(args.stage, prior, corpus, config)
    except ValueError as e:
        raise ValueError(f"{args.params}: {e}") from None
    net, r = pipeline.run_stage(args.stage, prior, corpus, config, out_dir=out)
    ckpt = _write_checkpoint(out, args.stage, net, config.seed)
    print(f"{r.stage}: miou {r.miou:.4f} ({r.seconds:.1f}s)")
    print(f"wrote {ckpt}")
    return 0


def cmd_eval(args) -> int:
    net = _load_network(args.checkpoint)
    per_iou, miou = pipeline.evaluate(net, data.read_dataset(args.data).split("eval"))
    print("class  iou")
    for k, v in enumerate(per_iou):
        print(f"{k:<6d} {v:.6f}")
    print(f"miou   {miou:.6f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1, as other bad input does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="stc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=4)
    g.add_argument("--simple", type=int, default=200)
    g.add_argument("--complex", type=int, default=100)
    g.add_argument("--eval", type=int, default=50)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--size", type=int, default=64)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("saliency", help="precompute saliency maps for simple images")
    s.add_argument("--data", required=True)
    s.set_defaults(fn=cmd_saliency)

    r = sub.add_parser("run", help="run the full three-stage pipeline")
    r.add_argument("--data", required=True, help="dataset directory")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--config")
    r.add_argument("--seed", type=int, default=None, help="override the config seed")
    r.set_defaults(fn=cmd_run)

    st = sub.add_parser("stage", help="run a single stage")
    st.add_argument("--data", required=True)
    st.add_argument("--out", required=True)
    st.add_argument("--stage", required=True, choices=pipeline.STAGES)
    st.add_argument("--params", help="prior-stage checkpoint (enhanced/powerful)")
    st.add_argument("--config")
    st.add_argument("--seed", type=int, default=None)
    st.set_defaults(fn=cmd_stage)

    e = sub.add_parser("eval", help="evaluate a checkpoint on the eval split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(fn=cmd_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if (getattr(args, "seed", None) or 0) < 0:  # gen, run and stage take --seed
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except PipelineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
