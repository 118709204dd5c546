"""``repro study`` — run, list and export declarative studies.

Subcommands (registered into the main ``repro`` parser)::

    repro study list            registered studies and their knobs
    repro study run NAME        run a study (parallel, cached) and print it
    repro study export NAME     run a study and flatten its rows to CSV

Study knobs are overridden with repeated ``--set field=value`` flags; values
are coerced to the field's type (comma-separated for tuple fields), so e.g.
``--set workloads=BS,NN --set scale=0.001`` works for every study.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

from repro.campaign.store import ResultStore
from repro.obs.cli import enable_observability, finish_trace
from repro.obs.log import get_logger
from repro.studies.base import Study
from repro.studies.registry import available_studies, study_class

_log = get_logger("study")

#: sentinel: tuple fields whose default is empty still coerce elements
_AUTO = object()


def _fraction(raw: str) -> float:
    """Parse ``"a/b"`` as a float (``scale=1/2048`` beats counting zeros)."""
    numerator, _, denominator = raw.partition("/")
    denom = float(denominator)
    if denom == 0:
        raise ValueError(f"fraction {raw!r} has a zero denominator")
    return float(numerator) / denom


def _coerce_scalar(raw: str, default) -> object:
    """Coerce one CLI string to the type of a field's default value."""
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        return int(raw)
    if isinstance(default, float):
        return _fraction(raw) if "/" in raw else float(raw)
    if isinstance(default, str):
        return raw
    # None or unknown: best effort — int, fraction, float, then the raw string
    try:
        return int(raw)
    except ValueError:
        pass
    if "/" in raw:
        try:
            return _fraction(raw)
        except ValueError:
            return raw
    try:
        return float(raw)
    except ValueError:
        return raw


def coerce_param(cls: type[Study], key: str, raw: str) -> object:
    """Coerce ``--set key=raw`` to the type of the study field's default."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    if key not in fields:
        raise KeyError(
            f"study {cls.name!r} has no knob {key!r}; "
            f"available: {', '.join(fields)}"
        )
    field = fields[key]
    if field.default is not dataclasses.MISSING:
        default = field.default
    elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        default = field.default_factory()  # type: ignore[misc]
    else:
        default = None
    if isinstance(default, tuple):
        element = default[0] if default else _AUTO
        items = [item.strip() for item in raw.split(",") if item.strip()]
        return tuple(
            _coerce_scalar(item, None if element is _AUTO else element)
            for item in items
        )
    return _coerce_scalar(raw, default)


def build_study(name: str, assignments: list[str]) -> Study:
    """Instantiate a registered study from ``--set key=value`` assignments."""
    cls = study_class(name)
    params = {}
    for assignment in assignments or []:
        key, sep, raw = assignment.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {assignment!r}")
        params[key.strip()] = coerce_param(cls, key.strip(), raw.strip())
    return cls(**params)


def _knobs(cls: type[Study]) -> str:
    parts = []
    for field in dataclasses.fields(cls):
        default = field.default
        if default is dataclasses.MISSING and field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = field.default_factory()  # type: ignore[misc]
        parts.append(f"{field.name}={default!r}")
    return ", ".join(parts)


def cmd_list(args: argparse.Namespace) -> int:
    """``study list``: every registered study, its title and its knobs."""
    for name in available_studies():
        cls = study_class(name)
        print(f"{name:<20} {cls.title}")
        if args.verbose:
            print(f"{'':<20} knobs: {_knobs(cls)}")
    return 0


def _build_study_or_none(args: argparse.Namespace) -> Study | None:
    """Build the study; bad names/knob values print ``error:`` and yield None.

    Only construction gets the friendly error path — an exception out of the
    run itself is an internal failure whose traceback must survive.
    """
    try:
        return build_study(args.study, args.set)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        _log.error("error: %s", message)
        return None


def _execute_study(study: Study, args: argparse.Namespace):
    """Run the study; a bad ``--dir`` prints ``error:`` and yields None."""
    from repro.campaign.cli import ProgressReporter  # late: avoids import cycle

    # Only a grid-backed study opens a store and reports progress.  Grid-
    # backed means the study declares a spec or overrides jobs(), checked
    # without expanding the grid here — Study.run expands it once, and
    # content-hashing thousands of cells twice is real time on a large
    # surface.
    grid_backed = study.spec() is not None or type(study).jobs is not Study.jobs
    store = None
    if grid_backed and args.dir is not None:
        try:
            store = ResultStore(args.dir)
        except ValueError as exc:
            _log.error("error: %s", exc)
            return None
    enable_observability(args)
    progress = None
    if not args.quiet and grid_backed:
        progress = ProgressReporter(workers=args.workers)
    return study.run(store=store, workers=args.workers, progress=progress)


def cmd_run(args: argparse.Namespace) -> int:
    """``study run``: execute a study and print its formatted table."""
    study = _build_study_or_none(args)
    if study is None:
        return 2
    result = _execute_study(study, args)
    if result is None:
        return 2
    print(study.format(result))
    if result.meta.get("n_jobs"):
        print(
            f"\nstudy '{study.name}': {result.meta['n_jobs']} jobs — "
            f"{result.meta.get('n_cached', 0)} cached, "
            f"{result.meta.get('n_executed', 0)} executed",
            file=sys.stderr,
        )
    finish_trace(args)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """``study export``: execute a study and write its rows as CSV."""
    study = _build_study_or_none(args)
    if study is None:
        return 2
    result = _execute_study(study, args)
    if result is None:
        return 2
    rows = study.export(result)
    columns = result.columns()
    handle = sys.stdout if args.csv == "-" else open(args.csv, "w", newline="")
    try:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if handle is not sys.stdout:
            handle.close()
    if args.csv != "-":
        print(f"wrote {len(rows)} rows to {args.csv}")
    finish_trace(args)
    return 0


def add_study_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``study`` subcommand tree on the main ``repro`` parser."""
    study = sub.add_parser("study", help="run and export declarative studies")
    study_sub = study.add_subparsers(dest="subcommand", required=True)

    list_parser = study_sub.add_parser("list", help="list registered studies")
    list_parser.add_argument(
        "-v", "--verbose", action="store_true", help="also show each study's knobs"
    )
    list_parser.set_defaults(func=cmd_list)

    def add_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("study", help="registered study name (see 'study list')")
        parser.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a study knob (repeatable; comma-separated tuples)",
        )
        parser.add_argument(
            "--dir", default=None, help="result store for the study's grid cells"
        )
        parser.add_argument("--workers", type=int, default=1, help="worker processes")
        parser.add_argument(
            "--quiet", action="store_true", help="suppress per-job progress"
        )
        parser.add_argument(
            "--trace",
            default=None,
            metavar="OUT.json",
            help="collect per-phase spans and write a Chrome trace-event file",
        )

    run_parser = study_sub.add_parser("run", help="run a study and print its table")
    add_common(run_parser)
    run_parser.set_defaults(func=cmd_run)

    export_parser = study_sub.add_parser("export", help="run a study and export CSV")
    add_common(export_parser)
    export_parser.add_argument("--csv", default="-", help="output path, or '-' for stdout")
    export_parser.set_defaults(func=cmd_export)
