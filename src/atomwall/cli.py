"""Command-line surface: single-point evaluation, sweeps, comparison tables, dumps.

Subcommands:

    energy   --config c.json            one result block per configured separation
    sweep    --config c.json            CSV/JSON rows over the separation range
    table    --config c.json            |F| of the reference plus variant factors
    epsilon  --config c.json            eps(i xi) dump of the wall model on a log grid
    alpha    --config c.json            alpha(i xi) dump of the atom model

Every command takes ``--out <path>`` (default stdout) and ``--format csv|json``
(default from the config's output block).  Outputs are deterministic: the same
config yields byte-identical bytes, and CSV files carry the config's SHA-256
digest in a header comment.  The separations of one atom are evaluated as one
``free_energy_batch`` call, in a single thread: ``table`` makes one call per
distinct atom, with every wall paired with that atom.

Exit codes: 0 success, 2 usage errors (including a config that cannot be read
and an output that cannot be written), 3 config/validation errors,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .dataio import TABLE_COLUMNS, RunConfig, parse_run_config
from .dielectric import eps_iw
from .errors import AtomWallError, ConfigError, ConvergenceError, UsageError
from .lifshitz import ComputationRequest, free_energy_batch
from .polarizability import alpha_iw

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _fmt(value) -> str:
    return format(float(value), ".10g")


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_column(column) -> list:
    """A column's values as ``json.dumps`` writes them: float.__repr__ or int.__repr__."""
    try:
        text = list(map(float.__repr__ if isinstance(column[0], float) else int.__repr__, column))
    except TypeError:   # ints and floats in one column
        text = [float.__repr__(v) if isinstance(v, float) else int.__repr__(v) for v in column]
    if _JSON_NON_FINITE.keys().isdisjoint(text):
        return text
    return [_JSON_NON_FINITE.get(t, t) for t in text]


def _emit(config: RunConfig, stream, fmt: str, columns, rows) -> None:
    """Write ``rows`` under ``columns`` as JSON, or as CSV after the digest comment.

    The JSON is the bytes of ``json.dumps({"config_sha256": ..., "rows": [...]},
    sort_keys=True, indent=2)``: one row template, filled without its pure-Python encoder.
    """
    if fmt == "json":
        order = sorted(range(len(columns)), key=columns.__getitem__)
        template = "    {\n" + ",\n".join(
            f"      {json.dumps(columns[i]).replace('%', '%%')}: %s" for i in order) + "\n    }"
        text_columns = [_json_column(column) for column in zip(*rows)]
        body = ",\n".join(template % row for row in zip(*(text_columns[i] for i in order)))
        text = f'{{\n  "config_sha256": {json.dumps(config.digest)},\n  "rows": [\n{body}\n  ]\n}}'
    else:
        text = "\n".join([f"# config_sha256={config.digest}", ",".join(columns),
                          *(",".join(map(_fmt, row)) for row in rows)])
    stream.write(text + "\n")


def _require(config: RunConfig, *fields):
    missing = [name for name in fields if getattr(config, name) is None]
    if missing:
        raise ConfigError(f"config is missing required entries: {', '.join(missing)}")


def _evaluate_separations(config: RunConfig, atom, walls):
    """Free energies at all configured separations, per wall in order, as one batch."""
    results = free_energy_batch(
        ComputationRequest(atom=atom, wall=wall, a=float(a), T=config.temperature,
                           tol=config.tolerances)
        for wall in walls for a in config.separations
    )
    n = len(config.separations)
    return [results[i:i + n] for i in range(0, len(results), n)]


def cmd_energy(config: RunConfig, stream, fmt: str) -> None:
    """One ``key=value`` line per separation; ``fmt`` does not apply."""
    _require(config, "atom", "wall", "separations", "temperature")
    [results] = _evaluate_separations(config, config.atom, [config.wall])
    for a_nm, res in zip(config.separations_nm, results):
        fields = [
            f"a_nm={_fmt(a_nm)}",
            f"free_energy_J={_fmt(res.free_energy)}",
            f"abs_free_energy_J={_fmt(abs(res.free_energy))}",
            f"normalized={_fmt(res.normalized)}",
            f"n_terms={res.n_terms_used}",
            f"max_quad_nodes={res.max_quad_nodes}",
        ]
        line = " ".join(fields)
        if res.warnings:
            line += " warnings=" + ";".join(res.warnings).replace(" ", "_")
        print(line, file=stream)


def cmd_sweep(config: RunConfig, stream, fmt: str) -> None:
    _require(config, "atom", "wall", "separations", "temperature")
    [results] = _evaluate_separations(config, config.atom, [config.wall])
    rows = [(a_nm, res.free_energy, res.normalized, res.n_terms_used)
            for a_nm, res in zip(config.separations_nm, results)]
    _emit(config, stream, fmt, ("a_nm", "free_energy_J", "normalized", "n_terms"), rows)


def cmd_table(config: RunConfig, stream, fmt: str) -> None:
    _require(config, "atom", "wall", "separations", "temperature")
    if not config.variants:
        raise ConfigError("table command needs a reference block and at least one variant")
    pairs = [(config.atom, config.wall), *((v.atom, v.wall) for v in config.variants)]
    results = {}
    for atom in dict.fromkeys(atom for atom, _ in pairs):   # the reference's atom first
        members = [k for k, (other, _) in enumerate(pairs) if other == atom]
        results.update(zip(members, _evaluate_separations(
            config, atom, [pairs[k][1] for k in members])))
        # checked after the reference's batch, before any other atom is evaluated
        if any(ref.free_energy == 0.0 for ref in results[0]):
            raise UsageError("reference free energy vanishes; factors undefined")
    reference, *variants = (results[k] for k in range(len(pairs)))
    rows = [(a_nm, abs(ref.free_energy), *(var.free_energy / ref.free_energy for var in row))
            for a_nm, ref, *row in zip(config.separations_nm, reference, *variants)]
    columns = (*TABLE_COLUMNS, *(v.label for v in config.variants))
    _emit(config, stream, fmt, columns, rows)


def _dump_handler(model_field: str, response):
    """A handler that dumps ``response(model, xi)`` of the config's ``model_field`` on its grid."""
    def handler(config: RunConfig, stream, fmt: str) -> None:
        _require(config, model_field, "grid")
        frequencies = config.grid.frequencies()
        values = response(getattr(config, model_field), frequencies)
        _emit(config, stream, fmt, ("xi_rad_s", "value"),
              [(float(x), float(v)) for x, v in zip(frequencies, values)])
    return handler


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomwall",
        description="Casimir-Polder free energy of an atom facing a flat wall",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("energy", "evaluate the free energy at the configured separations"),
        ("sweep", "tabulate the free energy over the separation range"),
        ("table", "correction factors of model variants against a reference"),
        ("epsilon", "dump the wall permittivity eps(i xi) on a log grid"),
        ("alpha", "dump the atomic polarizability alpha(i xi) on a log grid"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON run config")
        cmd.add_argument("--out", default=None, help="output file (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None,
                         help="output format (default: config output block, else csv)")
    return parser


_PARSER = build_parser()
_DISPATCH = {
    "energy": cmd_energy,
    "sweep": cmd_sweep,
    "table": cmd_table,
    # the lambdas read eps_iw and alpha_iw from this module when called, so a
    # wrapper installed on the module later is the one that runs
    "epsilon": _dump_handler("wall", lambda wall, xi: eps_iw(wall, xi)),
    "alpha": _dump_handler("atom", lambda atom, xi: alpha_iw(atom, xi)),
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # the config is parsed before --out is opened, so a bad one truncates nothing
        config = parse_run_config(args.config)
        out_path = args.out or config.output_path
        with (open(out_path, "w", encoding="utf-8") if out_path is not None
              else contextlib.nullcontext(sys.stdout)) as stream:
            _DISPATCH[args.command](config, stream, args.format or config.output_format)
    except (OSError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as err:
        print(f"error: {err} diagnostics={err.diagnostics}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AtomWallError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
