"""Command-line surface: ideal I/O, invariants, recipes, checks, census runs.

Four subcommands: ``hilbert`` classifies an ideal file, ``construct``
evaluates a recipe into an ideal file, ``census`` sweeps quadratic forms
against a complete intersection cover, and ``check`` runs the conjecture
checkers.  All output is plain text, CSV, or Markdown; identical flags and
seeds produce byte-identical output.  Exit status is 0 on success, 1 on
domain errors or negative verdicts, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .census import (CensusConfig, CensusConfigError, run_census,
                     records_to_csv, summary_markdown)
from .constructions import link_by_squares
from .core import AlgebraError, FieldSpec
from .gin import gin, check_injectivity_conjecture, check_wlp
from .invariants import as_basis, classify, minimal_generators
from .recipes import format_ideal, parse_ideal, run_recipe


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _census_out(path: str) -> str:
    if path == "-" or os.path.splitext(path)[1] == ".md":
        raise argparse.ArgumentTypeError(
            "the census writes a CSV file and a Markdown file beside it with "
            "extension .md, so --out must name a file other than standard "
            "output or a .md file")
    return path


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return count


def _field(text: str) -> FieldSpec:
    """An argparse type: a field token, 'q' or a prime."""
    try:
        return FieldSpec.from_token(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_ideal(args):
    return parse_ideal(_read_text(args.ideal_file), field=args.field,
                       nvars=args.vars)


# -- subcommands -----------------------------------------------------------------


def cmd_hilbert(args) -> int:
    """Print the h-vector line, socle degree, generator degrees, and the
    initial degree of an ideal file; with --stats, the basis's engine
    counters as one line on standard error."""
    gb = as_basis(_load_ideal(args))
    cls = classify(gb)
    if args.stats:
        st = gb.stats
        line = ("no run" if st is None else
                " ".join(f"{k}={v}" for k, v in st._asdict().items()))
        print(f"engine: {line}", file=sys.stderr)
    print(cls)
    print(f"socle degree: {cls.socle_degree}")
    nu = " ".join(f"{d}:{n}" for d, n in sorted(cls.generator_counts.items()))
    print(f"minimal generators: {nu if nu else 'none'}")
    print(f"alpha: {cls.alpha}")
    return 0


def cmd_construct(args) -> int:
    ideal, source = run_recipe(_read_text(args.recipe_file),
                               field=args.field, seed=args.seed)
    comments = [f"gorquad construct seed={args.seed} "
                f"field={ideal.ring.field.token}", "recipe:"]
    comments += [f"  {line}" for line in source]
    _write_text(args.out, format_ideal(ideal, comments=comments))
    return 0


# The census flag of each CensusConfig attribute.
_CENSUS_FLAGS = (("field", "--field"), ("r", "--r"), ("ci_style", "--ci"),
                 ("ci_seed", "--ci-seed"), ("mode", "--mode"),
                 ("sample_count", "--samples"), ("sample_seed", "--seed"),
                 ("parallelism", "--jobs"))


def _census_config(parser, args) -> CensusConfig:
    """The CensusConfig the census flags name; a refused combination is a
    usage error (exit 2) that names the flag at fault."""
    if args.mode == "sample" and args.samples is None:
        parser.error("argument --samples: required with --mode sample")
    try:
        cfg = CensusConfig(
            field=args.field, r=args.r, ci_style=args.ci,
            ci_seed=args.ci_seed,
            mode=("exhaustive_squarefree" if args.mode == "exhaustive"
                  else "random_sample"),
            sample_count=args.samples or 0, sample_seed=args.seed,
            parallelism=args.jobs)
    except CensusConfigError as exc:
        parser.error(f"argument {dict(_CENSUS_FLAGS)[exc.attribute]}: {exc}")
    if args.samples is not None and args.mode == "exhaustive":
        parser.error("argument --samples: the exhaustive sweep takes every "
                     "form; --samples needs --mode sample")
    return cfg


def cmd_census(args) -> int:
    cfg = args.config
    records, summary = run_census(cfg)
    if args.out:
        _write_text(args.out, records_to_csv(cfg, records))
        _write_text(os.path.splitext(args.out)[0] + ".md",
                    summary_markdown(summary))
    sys.stdout.write(summary_markdown(summary))
    # Findings, errored forms among them, are negative verdicts.
    return 1 if summary.findings else 0


_INJ_PRECONDITIONS = (
    ("characteristic 2", "precondition: odd or zero characteristic"),
    ("not presented by quadrics", "precondition: presented by quadrics"),
    ("socle degree", "precondition: socle degree ≥ 3"),
)


def cmd_check(args) -> int:
    I = _load_ideal(args)
    if args.what == "inj":
        report = check_injectivity_conjecture(I)
        if not report.applicable:
            for needle, line in _INJ_PRECONDITIONS:
                if needle in report.detail:
                    print(line)
                    return 1
            print(f"precondition: {report.detail}")
            return 1
        verdict = "holds" if report.injective else "fails"
        print(f"injectivity: {verdict} "
              f"(rank {report.rank}/{report.expected}, "
              f"{report.num_samples} samples)")
        return 0 if report.injective else 1
    if args.what == "wlp":
        report = check_wlp(I)
        if report.has_wlp:
            print("WLP: holds")
            return 0
        degrees = ", ".join(str(d) for d in report.failing_degrees())
        print(f"WLP: fails at degree(s) {degrees}")
        return 1
    if args.what == "gin":
        result = gin(I, seed=args.seed)
        print(f"gin: certified borel-fixed "
              f"(attempts agreed: {result.attempts_agreed})")
        for g in minimal_generators(result.monomial_ideal):
            print(g)
        return 0
    # link-duality: colon out of the squares cover twice and compare
    middle = link_by_squares(I)
    back = link_by_squares(middle)
    same = as_basis(back).elements == as_basis(I).elements
    print("link duality: holds" if same else "link duality: fails")
    return 0 if same else 1


# -- argument parsing -------------------------------------------------------------


def _add_ideal_input(sub) -> None:
    sub.add_argument("ideal_file",
                     help="ideal file path, or '-' for standard input")
    sub.add_argument("--field", type=_field, default=None,
                     help="field when the file has no header: q or a prime")
    sub.add_argument("--vars", type=int, default=None,
                     help="variable count when the file has no header")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gorquad",
        description="Artinian Gorenstein algebras: invariants, "
                    "constructions, linkage, and censuses.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    hil = subs.add_parser("hilbert",
                          help="classify an ideal: h-vector, socle degree, "
                               "generator degrees")
    _add_ideal_input(hil)
    hil.add_argument("--stats", action="store_true",
                     help="print the Groebner engine's counters on "
                          "standard error")
    hil.set_defaults(func=cmd_hilbert)

    con = subs.add_parser("construct",
                          help="evaluate a recipe file into an ideal file")
    con.add_argument("recipe_file",
                     help="recipe file path, or '-' for standard input")
    con.add_argument("--field", type=_field, default=None,
                     help="coefficient field: q or a prime (default q)")
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--out", default="-",
                     help="output ideal file (default: standard output)")
    con.set_defaults(func=cmd_construct)

    cen = subs.add_parser("census",
                          help="sweep quadratic forms against a complete "
                               "intersection of quadrics")
    cen.add_argument("--field", type=_field, required=True,
                     help="q or a prime")
    cen.add_argument("--r", type=_at_least(2), default=6)
    cen.add_argument("--ci", choices=("monomial", "random"),
                     default="monomial")
    cen.add_argument("--ci-seed", type=int, default=1)
    cen.add_argument("--mode", choices=("exhaustive", "sample"),
                     default="exhaustive")
    cen.add_argument("--samples", type=_at_least(1), default=None,
                     help="forms to draw; required with --mode sample")
    cen.add_argument("--seed", type=int, default=0)
    cen.add_argument("--jobs", type=_at_least(1), default=1)
    cen.add_argument("--out", default=None, type=_census_out,
                     help="CSV output path; the Markdown summary lands "
                          "next to it with extension .md")
    cen.set_defaults(func=cmd_census)

    chk = subs.add_parser("check", help="run a conjecture or duality check")
    chk.add_argument("--what", required=True,
                     choices=("inj", "wlp", "gin", "link-duality"))
    _add_ideal_input(chk)
    chk.add_argument("--seed", type=int, default=0)
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "census":
        args.config = _census_config(parser, args)
    try:
        return args.func(args)
    except (AlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
