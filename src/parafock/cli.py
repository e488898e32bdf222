"""Batch command-line interface: verification suites and table generation.

Output is JSON lines (CSV available as a flat projection).  Exit codes:
0 = all checks pass, 1 = mathematical mismatch, 2 = usage or config error
(a negative --p is one on every command).  Identical invocations produce
byte-identical output.

Each cmd_*(args, out) emits its records into out and returns its verdict,
or raises UsageError.  main builds the one Emitter, flushes it only once a
verdict is returned (so a usage error leaves stdout empty) and maps the
verdict or the UsageError to the exit code.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys

from . import algebra, patterns, reduced, symfunc, verma

MAX_LEVEL = 12   # safety cap: desk-scale exact arithmetic
MAX_DEGREE = 12
# verify-algebra brackets the basis pairs whose supports meet, among d^2,
# d = 2(m+n)^2 + m + 3n: at (0, 46) and (46, 0) the run takes 7.5-8.7 s and
# 168-173 MiB, at (0, 48) and (48, 0) 9.4-14 s (2 vCPU, CPython 3.11)
MAX_ALGEBRA_RANK = 46
# gram and matelems build a Verma engine, whose packed-key units grow like
# (m+n)^4: at (80, 80) `gram --p 1 --levels 1` takes 0.4 s and 215 MiB
# (2 vCPU, CPython 3.11)
MAX_ORACLE_RANK = 160
# dims and char recurse once per index, about two frames each
# (patterns.fillings row by row, symfunc._skew_schur letter by letter), so
# from m + n = 500 they overflow the default recursion limit; at
# m + n = 400 `dims --levels 1` takes 5.3-6.7 s and 135-282 MiB and
# `char --degree 1` 0.7 s and 195 MiB (2 vCPU, CPython 3.11)
MAX_RANK = 400
# char's series hold one entry per creation content, C(m+n+degree, degree)
# of them: at (0, 8) with degree 12 (125,970 contents) `char --p 12` takes
# about 8 s and 194 MiB (2 vCPU, CPython 3.11)
MAX_CHAR_CONTENTS = 130_000

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad input from the command line or from an input file (exit 2)."""


# one encoder for every JSON line: json.dumps builds a new one per call
_JSON_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Emitter:
    """Collects records, then writes JSON lines or a CSV projection."""

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path
        self.records: list[dict] = []

    def emit(self, record: dict):
        self.records.append(record)

    def flush(self):
        if self.fmt == "json":
            text = "\n".join(map(_JSON_LINE.encode, self.records))
        else:
            import csv  # here, not at the top: a JSON run never imports it
            cols = list(dict.fromkeys(k for r in self.records for k in r))
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(cols)
            for r in self.records:
                writer.writerow(
                    [json.dumps(r[k], sort_keys=True) if k in r else ""
                     for k in cols]
                )
            text = buf.getvalue().rstrip("\n")
        if self.out_path:
            try:
                with open(self.out_path, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise UsageError(
                    f"cannot write --out {self.out_path}: {exc.strerror}"
                ) from exc
        else:
            sys.stdout.write(text + "\n")


def _meta(command: str, **extra) -> dict:
    return {"meta": command, "schema_version": 1, **extra}


def _check_session(args, need_p=True, domain=True, cap=None):
    """Raise UsageError for out-of-range options.  --p must be >= 1, or
    >= 0 where need_p is False (p = 0 caps dims at the vacuum); --m/--n
    are skipped where domain is False (verify-id2 --domains), and m + n
    must not exceed cap where one is given."""
    if domain and (args.m < 0 or args.n < 0 or args.m + args.n < 1):
        raise UsageError("need m >= 0, n >= 0 and m + n >= 1")
    low = 1 if need_p else 0
    if args.p is not None and min(args.p) < low:
        raise UsageError(f"p must be >= {low}")
    levels = getattr(args, "levels", None)
    if levels is not None and not 0 <= levels <= MAX_LEVEL:
        raise UsageError(f"levels must be in 0..{MAX_LEVEL}")
    degree = getattr(args, "degree", None)
    if degree is not None and not 0 <= degree <= MAX_DEGREE:
        raise UsageError(f"degree must be in 0..{MAX_DEGREE}")
    if cap is not None and args.m + args.n > cap:
        raise UsageError(f"{args.command} needs m + n <= {cap}")


def _single_p(args) -> int:
    """The order, or 1 when --p is absent."""
    if args.p is None:
        return 1
    if len(args.p) != 1:
        raise UsageError("this command takes a single --p value")
    return args.p[0]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_algebra(args, out: Emitter) -> bool:
    _check_session(args, need_p=False, cap=MAX_ALGEBRA_RANK)
    out.emit(_meta("verify-algebra", m=args.m, n=args.n))
    ok = True
    for check, rep in zip(("triple_relations", "para_relations"),
                          algebra.verify_relations(args.m, args.n)):
        ok &= not rep["failures"]
        out.emit({"check": check, "checked": rep["checked"],
                  "failures": len(rep["failures"])})
    try:
        basis = algebra.structure_constants(args.m, args.n)
        out.emit({"check": "structure_constants",
                  "dimension": basis.dimension,
                  "even_dimension": algebra.expected_even_dimension(args.m, args.n),
                  "diagonal_subalgebra_size":
                      len(basis.diagonal_subalgebra_labels()),
                  # structure_constants raises unless the piece is closed
                  "closed": True})
        if args.dump:
            try:
                with open(args.dump, "w") as fh:
                    for label, mat in basis.elements:
                        fh.write(json.dumps(
                            {"label": list(label),
                             "records": mat.to_records()},
                            sort_keys=True) + "\n")
            except OSError as exc:
                raise UsageError(
                    f"cannot write --dump {args.dump}: {exc.strerror}"
                ) from exc
    except ArithmeticError as exc:
        out.emit({"check": "structure_constants", "error": str(exc)})
        ok = False
    return ok


def _read_patterns(path: str, m: int, n: int) -> list:
    """(rows, GZPattern) per non-blank line of a JSON-lines pattern file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read --validate {path}: {exc.strerror}") \
            from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read --validate {path}: {exc}") from exc
    out = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:  # json.JSONDecodeError is a ValueError
            rows = json.loads(line)
            if not (isinstance(rows, list) and all(
                    isinstance(row, list)
                    and all(type(x) is int for x in row) for row in rows)):
                raise ValueError("expected an array of integer arrays")
            out.append((rows, patterns.GZPattern.from_rows(m, n, rows)))
        except (ValueError, RecursionError) as exc:  # too deep a nesting
            raise UsageError(f"{path}:{number}: {exc}") from exc
    return out


def cmd_dims(args, out: Emitter) -> bool:
    _check_session(args, need_p=False, cap=MAX_RANK)
    out.emit(_meta("dims", m=args.m, n=args.n, levels=args.levels))
    ok = True
    if args.validate:
        for rows, pat in _read_patterns(args.validate, args.m, args.n):
            fails = patterns.pattern_failures(pat)
            ok &= not fails
            out.emit({"pattern": rows, "valid": not fails,
                      "failures": fails})
        return ok
    if args.p is not None and len(args.p) != 1:
        raise UsageError("dims takes at most one --p value")
    p = args.p[0] if args.p else None
    for level in range(args.levels + 1):
        for top in patterns.top_rows_for_level(args.m, args.n, level,
                                               max_width=p):
            la = patterns.partition_from_top_row(top, args.m, args.n)
            fills = patterns.fillings(top, args.m, args.n)
            schur_dim = sum(symfunc.super_schur(la, args.m, args.n).values())
            ok &= len(fills) == schur_dim
            rec = {"level": level, "top_row": list(top),
                   "partition": list(la), "count": len(fills),
                   "schur_dim": schur_dim, "match": len(fills) == schur_dim}
            out.emit(rec)
            if args.patterns:
                for pat in fills:
                    out.emit({"top_row": list(top),
                              "pattern": pat.to_rows()})
    return ok


def cmd_char(args, out: Emitter) -> bool:
    _check_session(args, cap=MAX_RANK)
    if math.comb(args.m + args.n + args.degree, args.degree) \
            > MAX_CHAR_CONTENTS:
        raise UsageError(f"char needs C(m + n + degree, degree) <= "
                         f"{MAX_CHAR_CONTENTS}")
    p = _single_p(args)
    out.emit(_meta("char", m=args.m, n=args.n, p=p, degree=args.degree))
    rep = symfunc.character_formula_report(args.m, args.n, p, args.degree)
    for series in ("verma", "irreducible"):
        ch = rep[series]
        for content in sorted(ch, key=lambda e: (sum(e), e)):
            weight = patterns.doubled_weight(content, args.m, args.n, p)
            out.emit({"series": series, "level": sum(content),
                      "weight_vector": list(weight),
                      "multiplicity": ch[content]})
    out.emit({"check": "character_formula", "series_equal": rep["series_equal"],
              "lr_identity_failures": len(rep["lr_identity_failures"]),
              "ok": rep["ok"]})
    both = symfunc.verma_character(args.m, args.n, args.degree)
    expansion_ok = both == rep["verma"]
    out.emit({"check": "weight_series_expansion", "ok": expansion_ok})
    return rep["ok"] and expansion_ok


def _parse_variant(text: str) -> reduced.ParsingVariant:
    """The variant named eo:zero:tail, or UsageError."""
    try:
        return reduced.ParsingVariant.from_short(text)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"unknown variant {text!r}") from exc


def _parse_domains(text: str):
    domains = []
    for part in text.split(";"):
        m, n = part.split(",")
        domains.append((int(m), int(n)))
    return domains


def cmd_verify_id2(args, out: Emitter) -> bool:
    if args.domains is None and (args.m is None or args.n is None):
        raise UsageError("verify-id2 needs --m and --n, or --domains")
    _check_session(args, domain=args.domains is None)
    p_values = args.p or [1, 2, 3]
    if len(set(p_values)) != len(p_values):
        raise UsageError("--p values must be distinct")
    if args.domains is not None:
        try:
            domains = _parse_domains(args.domains)
        except ValueError as exc:
            raise UsageError("--domains expects 'm,n;m,n;...'") from exc
        if len(set(domains)) != len(domains):
            raise UsageError("--domains values must be distinct")
    else:
        domains = [(args.m, args.n)]
    if any(m < 0 or n < 1 for m, n in domains):
        raise UsageError(
            "every domain needs m >= 0 and n >= 1 (the recurrence needs a "
            "bosonic slot)")
    out.emit(_meta("verify-id2", domains=[list(d) for d in domains],
                   p=p_values, levels=args.levels))
    if args.variant != "auto":
        variant = _parse_variant(args.variant)
        ok = True
        for (m, n) in domains:
            sweep = reduced.residual_sweep(m, n, p_values, args.levels, variant)
            ok &= sweep["ok"]
            out.emit({"domain": [m, n], "variant": variant.short(),
                      "configs": sweep["configs"],
                      "residual_failures": sweep["failure_count"],
                      "zero_division_errors": sweep["errors"],
                      "sample_failures": sweep["failures"][:3]})
        out.emit({"check": "recurrence", "variant": variant.short(), "ok": ok})
        return ok
    if len(p_values) < 2:
        raise UsageError("variant selection needs at least two --p values")
    try:
        rep = reduced.select_parsing_variant_multi(domains, p_values, args.levels)
    except reduced.VariantSelectionError as exc:
        out.emit({"check": "variant_selection", "ok": False,
                  "error": str(exc)})
        return False
    for stat in rep["per_variant"]:
        out.emit({"domain": [stat["m"], stat["n"]],
                  "variant": stat["variant"], "configs": stat["configs"],
                  "residual_failures": stat["failure_count"],
                  "zero_division_errors": stat["errors"]})
    out.emit({"check": "variant_selection", "ok": True,
              "selected": rep["selected"].short(),
              "survivors": rep["survivors"]})
    return True


def cmd_gk_table(args, out: Emitter) -> bool:
    _check_session(args)
    p = _single_p(args)
    variant = (reduced.DEFAULT_VARIANT if args.variant == "auto"
               else _parse_variant(args.variant))
    out.emit(_meta("gk-table", m=args.m, n=args.n, p=p,
                   levels=args.levels, variant=variant.short()))
    ok = True
    for level in range(args.levels + 1):
        for top in patterns.top_rows_for_level(
                args.m, args.n, level, max_width=None if args.no_cap else p):
            for k in range(1, args.m + args.n + 1):
                try:
                    val = reduced.reduced_me(top, k, p, args.m, args.n, variant)
                except ArithmeticError as exc:
                    out.emit({"top_row": list(top), "k": k, "p": p,
                              "error": str(exc)})
                    ok = False
                    continue
                out.emit({
                    "top_row": list(top), "k": k, "p": p, "sign": val.sign,
                    "radicand_num": val.radicand.numerator,
                    "radicand_den": val.radicand.denominator,
                })
    return ok


def cmd_gram(args, out: Emitter) -> bool:
    _check_session(args, cap=MAX_ORACLE_RANK)
    p = _single_p(args)
    out.emit(_meta("gram", m=args.m, n=args.n, p=p, levels=args.levels))
    char_mult = symfunc.irreducible_character(args.m, args.n, p, args.levels)
    ok = True
    records = list(verma.gram_records_up_to(args.m, args.n, p, args.levels))
    for rec in records:
        expected = char_mult.get(rec.content, 0)
        match = rec.rank == expected
        ok &= match and rec.psd
        out.emit({"weight": list(rec.weight), "level": sum(rec.content),
                  "block_size": rec.size, "rank": rec.rank,
                  "psd": rec.psd, "char_multiplicity": expected,
                  "match": match})
    if args.n >= 1:
        rep = verma.diagonal_check(args.m, args.n, p, args.levels, records)
        ok &= rep["ok"]
        out.emit({"check": "diagonal_action", "checked": rep["checked"],
                  "failures": len(rep["failures"]), "ok": rep["ok"]})
    rep = verma.radical_cut_check(args.m, args.n, p, args.levels, records)
    ok &= rep["ok"]
    out.emit({"check": "radical_cut", "ok": rep["ok"],
              "cut_expected": rep["cut_expected"],
              "cut_witness": rep["cut_witness"]})
    return ok


def cmd_matelems(args, out: Emitter) -> bool:
    _check_session(args, cap=MAX_ORACLE_RANK)
    p = _single_p(args)
    out.emit(_meta("matelems", m=args.m, n=args.n, p=p,
                   levels=args.levels))
    engine = verma.get_engine(args.m, args.n)
    ok = True
    for rec in verma.gram_records_up_to(args.m, args.n, p, args.levels):
        for mono in verma.basis_for_content(args.m, args.n, rec.content):
            norm = engine.pair_poly(mono, mono).evaluate(p)
            out.emit({"weight": list(rec.weight),
                      "monomial": {"singles": list(mono.singles),
                                   "pairs": list(mono.pairs)},
                      "norm_sq_num": norm.numerator,
                      "norm_sq_den": norm.denominator})
        if args.n >= 1:
            try:
                values = verma.diagonal_values(rec)
            except ArithmeticError as exc:
                out.emit({"weight": list(rec.weight), "error": str(exc)})
                ok = False
                continue
            out.emit({"weight": list(rec.weight),
                      "diagonal_values":
                          [[v.numerator, v.denominator] for v in values]})
    return ok


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parafock",
        description=(
            "Exact verification engine for parastatistics Fock spaces of "
            "osp(2m+1|2n)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, levels=None, degree=None, variant=False, domain=True):
        sp.add_argument("--m", type=int, required=domain)
        sp.add_argument("--n", type=int, required=domain)
        sp.add_argument("--p", type=_p_list, default=None,
                        help="order parameter; comma list where applicable")
        if levels is not None:
            sp.add_argument("--levels", type=int, default=levels)
        if degree is not None:
            sp.add_argument("--degree", type=int, default=degree)
        if variant:
            sp.add_argument("--variant", default="auto",
                            help="auto or eo:zero:tail, e.g. mult:cancel:boson")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("verify-algebra",
                        help="defining relations and structure constants")
    common(sp)
    sp.add_argument("--dump", default=None,
                    help="write the basis matrices as JSON lines")
    sp.set_defaults(func=cmd_verify_algebra)

    sp = sub.add_parser("dims", help="pattern counts per top row")
    common(sp, levels=3)
    sp.add_argument("--patterns", action="store_true",
                    help="also emit every pattern as an array of rows")
    sp.add_argument("--validate", default=None,
                    help="validate patterns from a JSON-lines file")
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("char", help="characters and the character formula")
    common(sp, degree=4)
    sp.set_defaults(func=cmd_char)

    sp = sub.add_parser("verify-id2",
                        help="diagonal recurrence sweep / variant selection")
    common(sp, levels=4, variant=True, domain=False)
    sp.add_argument("--domains", default=None,
                    help="joint sweep domains as 'm,n;m,n;...', "
                         "in place of --m/--n")
    sp.set_defaults(func=cmd_verify_id2)

    sp = sub.add_parser("gk-table", help="reduced matrix element tables")
    common(sp, levels=3, variant=True)
    sp.add_argument("--no-cap", action="store_true",
                    help="include top rows beyond width p")
    sp.set_defaults(func=cmd_gk_table)

    sp = sub.add_parser("gram", help="Gram blocks, ranks and oracle verdicts")
    common(sp, levels=3)
    sp.set_defaults(func=cmd_gram)

    sp = sub.add_parser("matelems", help="exact norms and diagonal values")
    common(sp, levels=3)
    sp.set_defaults(func=cmd_matelems)

    return parser


def _p_list(text: str):
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Emitter(args.format, args.out)
    try:
        ok = args.func(args, out)
        out.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
