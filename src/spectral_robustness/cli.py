"""Command-line surface: gen-paths, corrupt, psd-shift, path-metrics, jacobian,
regress, report.

Every command validates its inputs fully, and checks every output target it
was given, before writing any output file; all outputs are deterministic
functions of the inputs.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import (
    corruptions, jacobian, paths, path_metrics, regression, render, spectral, synthetic, tables, tensorio,
)
from .errors import InvalidInputError, TraceParseError
from .spectral import class_averaged_shift_psd, image_stack, paired_shift_psd

# All toolkit errors subclass ValueError; OSError covers file-system failures.
_ERRORS = (ValueError, OSError)


# The names ``gen-paths`` gives its path files, ``f"path_{i:05d}.tnsr"``.
_PATH_FILE = re.compile(r"path_([0-9]{5}|[1-9][0-9]{5,})\.tnsr")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``specrob`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="specrob",
        description="Fourier interpolation paths, shift PSDs, and robustness statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-paths", help="sample and build interpolation paths")
    p.add_argument("--images", required=True, help="dataset tensor file, shape (N, C, H, W)")
    p.add_argument("--labels", required=True, help="CSV of index,label")
    p.add_argument("--mode", required=True, choices=paths.PATH_MODES)
    p.add_argument(
        "--class-relation",
        default="any",
        choices=["within", "between", "any"],
    )
    p.add_argument("--cutoff", type=float, default=paths.DEFAULT_CUTOFF)
    p.add_argument("--steps", type=int, default=paths.DEFAULT_STEPS)
    p.add_argument("--n-paths", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_paths)

    p = sub.add_parser("corrupt", help="apply a synthetic corruption to an image stack")
    p.add_argument("--images", required=True)
    p.add_argument("--kind", required=True, choices=corruptions.CORRUPTION_KINDS)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("psd-shift", help="spectral characterization of a distribution shift")
    p.add_argument("--mode", required=True, choices=["paired", "class-averaged"])
    p.add_argument("--a", required=True, help="originals / first dataset tensor")
    p.add_argument("--b", required=True, help="corrupted / second dataset tensor")
    p.add_argument("--labels-a", help="labels CSV for --a (class-averaged mode)")
    p.add_argument("--labels-b", help="labels CSV for --b (class-averaged mode)")
    p.add_argument("--out", required=True, help="output PSD tensor file")
    p.add_argument("--pgm", help="optional PGM heatmap path")
    p.add_argument("--bands", help="optional band-fractions CSV path")
    p.add_argument(
        "--band-edges",
        type=_band_edges,
        default=spectral.DEFAULT_BAND_EDGES,
        help="comma-separated r1,r2 overriding the default band edges",
    )
    p.set_defaults(func=cmd_psd_shift)

    p = sub.add_parser("path-metrics", help="HFF/CD metrics from a trace CSV")
    p.add_argument("--traces", required=True)
    p.add_argument("--hff-threshold", type=int, default=path_metrics.DEFAULT_HFF_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_path_metrics)

    p = sub.add_parser("jacobian", help="random-projection Jacobian norm estimate")
    p.add_argument("--predictor", required=True, choices=["linear", "mlp"])
    p.add_argument(
        "--weights",
        help="weights tensor: (K, D+1) with bias column for linear; packed 1D for mlp "
        "(omit to train the built-in blob MLP)",
    )
    p.add_argument("--images", required=True)
    p.add_argument("--nproj", type=int, default=jacobian.DEFAULT_N_PROJ)
    p.add_argument("--batch", type=int, default=jacobian.DEFAULT_BATCH_SIZE)
    p.add_argument("--target", default="probs", choices=["probs", "logits"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("regress", help="grouped probit-domain regression")
    p.add_argument("--accuracies", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--x", required=True, help='metric name or "ID accuracy"')
    p.add_argument("--ood", required=True, help="OOD dataset_id")
    p.add_argument("--id", dest="id_dataset", help="ID dataset_id (inferred when unique)")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="optional scatter plot path")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("report", help="markdown summary of metrics and fits")
    p.add_argument("--metrics", required=True, help="path-metrics CSV")
    p.add_argument("--fit", help="optional regress output CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def _band_edges(text: str) -> tuple[float, float]:
    try:
        r1, r2 = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers r1,r2, got {text!r}") from None
    return r1, r2


def _check_outputs(**targets) -> None:
    """Check every output target given, by option, so a bad later one fails before the first write.

    Two options whose targets share a real path (the same name, or a symlink
    to the other) raise InvalidInputError naming both: the later write would
    replace the earlier.
    """
    owners = {}
    for option, target in targets.items():
        if target:
            real = tensorio.check_output(target)
            if real in owners:
                raise InvalidInputError(f"--{owners[real]} and --{option} name one output file, {real}")
            owners[real] = option


def _load_dataset(path) -> np.ndarray:
    data, _ = tensorio.read_tensor(path)
    return image_stack(data, str(path))


def cmd_gen_paths(args) -> int:
    images = _load_dataset(args.images)
    labels = tables.read_labels(args.labels, n_items=len(images))
    relation = "unconstrained" if args.class_relation == "any" else args.class_relation
    specs = paths.sample_path_specs(
        labels,
        n_paths=args.n_paths,
        mode=args.mode,
        class_relation=relation,
        rho=args.cutoff,
        t=args.steps,
        seed=args.seed,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A manifest vouches only for its own run: an interrupted rerun leaves none.
    (out_dir / "manifest.csv").unlink(missing_ok=True)
    manifest = []
    for i, spec in enumerate(specs):
        path_id = f"path_{i:05d}"
        filename = f"{path_id}.tnsr"
        built = paths.build_path(images[spec.source_index], images[spec.target_index], spec)
        tensorio.write_tensor(out_dir / filename, built.images)
        manifest.append(
            [path_id, spec.mode, spec.source_index, spec.target_index, spec.class_relation,
             spec.cutoff, spec.steps, spec.seed, filename]
        )
    tables.write_rows(out_dir / "manifest.csv", tables.MANIFEST_COLUMNS, manifest)
    _remove_unlisted_paths(out_dir, len(specs))
    print(f"wrote {len(specs)} paths to {out_dir}")
    return 0


def _remove_unlisted_paths(out_dir: Path, n_paths: int) -> None:
    """Delete the path files an earlier run wrote past index ``n_paths - 1``.

    Only names a run writes (``path_NNNNN.tnsr``) are touched; other files stay.
    """
    for entry in out_dir.iterdir():
        match = _PATH_FILE.fullmatch(entry.name)
        if match and int(match[1]) >= n_paths and entry.is_file():
            entry.unlink()


def cmd_corrupt(args) -> int:
    images = _load_dataset(args.images)
    spec = corruptions.CorruptionSpec(kind=args.kind, param=args.param, seed=args.seed)
    out = corruptions.corrupt_batch(images, spec)
    tensorio.write_tensor(args.out, out)
    print(f"wrote {len(out)} corrupted images to {args.out}")
    return 0


def cmd_psd_shift(args) -> int:
    if args.mode == "class-averaged" and not (args.labels_a and args.labels_b):
        raise InvalidInputError("class-averaged mode needs --labels-a and --labels-b")
    a = _load_dataset(args.a)
    b = _load_dataset(args.b)
    if args.mode == "paired":
        psd_map = paired_shift_psd(a, b)
    else:
        la = tables.read_labels(args.labels_a, n_items=len(a))
        lb = tables.read_labels(args.labels_b, n_items=len(b))
        psd_map = class_averaged_shift_psd(_class_slices(a, la), _class_slices(b, lb))

    fractions = spectral.band_fractions(psd_map, args.band_edges)

    _check_outputs(out=args.out, pgm=args.pgm, bands=args.bands)
    tensorio.write_tensor(args.out, psd_map.power)
    if args.pgm:
        render.emit_pgm(psd_map, args.pgm)
    if args.bands:
        tables.write_rows(
            args.bands,
            tables.BAND_COLUMNS,
            [[fractions.low, fractions.mid, fractions.high, *args.band_edges, psd_map.source_count]],
        )
    print(
        f"shift bands: low={fractions.low:.4f} mid={fractions.mid:.4f} "
        f"high={fractions.high:.4f}"
    )
    return 0


def _class_slices(stack: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Each label's images as one slice of ``stack``, which is sorted by label in place.

    The sort is stable, so each class keeps its images in file order, and no
    class is copied out of the stack.
    """
    order = np.argsort(labels, kind="stable")
    stack[...] = stack[order]
    keys, starts = np.unique(labels[order], return_index=True)
    ends = [*starts[1:], len(stack)]
    return {int(k): stack[lo:hi] for k, lo, hi in zip(keys, starts, ends)}


def cmd_path_metrics(args) -> int:
    if args.hff_threshold < 1:
        raise InvalidInputError(f"--hff-threshold must be at least 1, got {args.hff_threshold}")
    traces = tables.read_traces(args.traces)
    if not traces:
        raise TraceParseError(f"{args.traces}: no trace rows")
    shortest = min(traces, key=lambda tr: len(tr.probs))
    t = len(shortest.probs)
    if args.hff_threshold > t // 2:
        raise InvalidInputError(
            f"{args.traces}: --hff-threshold must be at most {t // 2} for path "
            f"{shortest.path_id!r} of {t} steps, got {args.hff_threshold}"
        )
    per_path = path_metrics.compute_path_metrics(traces, args.hff_threshold)
    hff_summary = path_metrics.summarize_gaussian([m.hff for m in per_path])
    cd_summary = path_metrics.summarize_gaussian([m.cd for m in per_path])
    tables.write_path_metrics(args.out, per_path, hff_summary, cd_summary, args.hff_threshold)
    print(
        f"{len(per_path)} paths: hff mean {hff_summary.mean:.4f} "
        f"[{hff_summary.ci95_low:.4f}, {hff_summary.ci95_high:.4f}], "
        f"cd mean {cd_summary.mean:.2f}"
    )
    return 0


def cmd_jacobian(args) -> int:
    if args.predictor == "linear" and not args.weights:
        raise InvalidInputError("--weights is required for the linear predictor")
    images = _load_dataset(args.images)
    config = jacobian.JacobianConfig(n_proj=args.nproj, batch_size=args.batch, seed=args.seed)
    if len(images) < args.batch:
        raise InvalidInputError(
            f"need at least {args.batch} images for batch size {args.batch}, got {len(images)}"
        )
    image_shape = images.shape[1:]
    d = int(np.prod(image_shape))
    if args.predictor == "linear":
        w, shape = tensorio.read_tensor(args.weights)
        if len(shape) != 2 or shape[1] != d + 1:
            raise InvalidInputError(
                f"linear weights must have shape (K, D+1) with D={d}, got {shape}"
            )
        predictor = jacobian.LinearPredictor(
            w[:, :-1], w[:, -1], image_shape=image_shape, target=args.target
        )
    else:
        if args.weights:
            packed, _ = tensorio.read_tensor(args.weights)
            predictor = jacobian.unpack_mlp_weights(packed, image_shape, target=args.target)
        else:
            blobs, labels = synthetic.make_blobs(tuple(image_shape), seed=args.seed)
            predictor = jacobian.fit_mlp(blobs, labels, seed=args.seed, target=args.target)
    estimate = jacobian.estimate_jacobian_norm(predictor, images[: args.batch], config)

    row = [estimate.frobenius_norm, estimate.ci95_low, estimate.ci95_high, estimate.n_estimates,
           args.nproj, args.batch, estimate.target, estimate.method, args.predictor, args.seed]
    tables.write_rows(args.out, tables.JACOBIAN_COLUMNS, [row])
    print(
        f"jacobian norm {estimate.frobenius_norm:.4f} "
        f"[{estimate.ci95_low:.4f}, {estimate.ci95_high:.4f}] ({estimate.method})"
    )
    return 0


def cmd_regress(args) -> int:
    accuracies = tables.read_accuracies(args.accuracies)
    metrics = tables.read_metrics(args.metrics)
    result = regression.grouped_regression(
        accuracies,
        metrics,
        x_spec=args.x,
        ood_dataset=args.ood,
        id_dataset=args.id_dataset,
    )

    _check_outputs(out=args.out, svg=args.svg)
    tables.write_fit(args.out, result)
    if args.svg:
        render.emit_scatter_svg(
            result.points,
            result.per_group,
            args.svg,
            x_label=(
                f"probit({result.x_spec})" if result.x_transform == "probit" else result.x_spec
            ),
            y_label=f"probit(accuracy on {result.ood_dataset})",
            title=f"{result.ood_dataset} vs {result.x_spec}",
        )

    print(
        f"averaged slope {result.averaged_slope:.4f}, averaged R^2 {result.averaged_r2:.4f} "
        f"over {len(result.per_group)} group(s)"
    )
    return 0


def cmd_report(args) -> int:
    per_path, footer = tables.read_path_metrics(args.metrics)
    if not per_path:
        raise TraceParseError(f"{args.metrics}: no path rows")
    lines = ["# Robustness metrics report", ""]
    lines.append(f"Paths analyzed: {len(per_path)}")
    if "hff_threshold_k" in footer:
        lines.append(f"HFF threshold bin: {footer['hff_threshold_k'][0]}")
    lines.append("")
    lines.append("| metric | mean | sample std | 95% CI |")
    lines.append("|---|---|---|---|")
    for col, name in ((0, "HFF"), (1, "CD")):
        mean = footer.get("mean", ("", ""))[col]
        std = footer.get("sample_std", ("", ""))[col]
        lo = footer.get("ci95_low", ("", ""))[col]
        hi = footer.get("ci95_high", ("", ""))[col]
        lines.append(f"| {name} | {mean} | {std} | [{lo}, {hi}] |")
    lines.append("")

    if args.fit:
        rows = tables.read_fit(args.fit)
        lines.append("## Probit-domain regression")
        lines.append("")
        if rows:
            lines.append(f"Predictor: {rows[0]['x_spec']} ({rows[0]['x_transform']}); "
                         f"OOD dataset: {rows[0]['ood_dataset']}")
            lines.append("")
        lines.append("| group | n | slope | intercept | R^2 | status |")
        lines.append("|---|---|---|---|---|---|")
        for row in rows:
            lines.append(
                f"| {row['group']} | {row['n_models']} | {row['slope']} | "
                f"{row['intercept']} | {row['r2']} | {row['status']} |"
            )
        lines.append("")

    with tensorio.atomic_open(args.out, "wb") as fh:
        fh.write("\n".join(lines).encode("utf-8"))
    print(f"wrote report to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
