"""Command-line front end.

Subcommands: lfunc, family, curve, moments, density, lemma61, eulersum,
primes.  Output goes to stdout or --out as CSV (schema-stable header per
command) or JSON.  Exact rationals serialize as "num/den" strings in CSV
and {"num": .., "den": ..} objects in JSON; floats use shortest
round-trip decimals.  Exit codes: 0 success, 1 configuration error,
2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import decimal
import json
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import biquad, eulerprod, ffpoly, lfunc, moments
from ._tables import check_sieve, poly_tables
from .errors import InvariantError

EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT = 0, 1, 2


class ConfigError(ValueError):
    """Bad flag or flag combination; message names the offending field."""


# ---------------------------------------------------------------------------
# Polynomial text format
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^([0-9]+)?(X(?:\^([0-9]+))?)?$")


def parse_poly(field, text):
    """Parse either ascending comma-separated coefficients ("1,0,1") or
    the symbolic form ("X^2+1").  Coefficients must already lie in
    0..q-1; out-of-range or malformed input raises ConfigError naming
    the offending position."""
    text = text.strip()
    if not text:
        raise ConfigError("poly: empty input")
    if "," in text or re.fullmatch(r"[0-9]+", text):
        coeffs = []
        for pos, tok in enumerate(text.split(",")):
            tok = tok.strip()
            if not re.fullmatch(r"[0-9]+", tok):
                raise ConfigError(f"poly: coefficient {pos} ({tok!r}) is not a base-10 integer")
            c = int(tok)
            if c >= field.q:
                raise ConfigError(f"poly: coefficient {pos} ({c}) out of range for q={field.q}")
            coeffs.append(c)
        return ffpoly.Poly(field, coeffs)
    coeffs = {}
    for pos, term in enumerate(text.split("+")):
        m = _TERM_RE.fullmatch(term.strip())
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ConfigError(f"poly: term {pos} ({term!r}) is malformed")
        coef = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            deg = 0
        elif m.group(3) is None:
            deg = 1
        else:
            deg = int(m.group(3))
        if coef >= field.q:
            raise ConfigError(f"poly: term {pos} coefficient {coef} out of range for q={field.q}")
        if deg in coeffs:
            raise ConfigError(f"poly: term {pos} repeats degree {deg}")
        coeffs[deg] = coef
    out = [0] * (max(coeffs) + 1)
    for deg, c in coeffs.items():
        out[deg] = c
    return ffpoly.Poly(field, out)


def poly_str(p):
    return str(p)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


#: ints of more bits than this print through _decimal_digits; str(int) is
#: quadratic in the length before Python 3.12, which switches near here too
_DECIMAL_STR_BITS = 30_000
#: the bit length at which _decimal_digits stops splitting
_DECIMAL_LEAF_BITS = 512


def _decimal_digits(n):
    """str(n) in subquadratic time: n is split in halves of bits down to
    _DECIMAL_LEAF_BITS-bit pieces, and the halves are joined as
    lo + hi * 2^w in decimal.Decimal, exactly, whose multiplication of big
    numbers is subquadratic (libmpdec's number-theoretic transform)."""
    D = decimal.Decimal
    two_powers = {}

    def two_pow(w):
        # 2^w as a Decimal; the widths of one level differ by at most one,
        # so each is the one below it doubled or a product of two halves
        if w not in two_powers:
            if w <= _DECIMAL_LEAF_BITS:
                two_powers[w] = D(1 << w)
            elif w - 1 in two_powers:
                two_powers[w] = two_powers[w - 1] * 2
            else:
                two_powers[w] = two_pow(w >> 1) * two_pow(w - (w >> 1))
        return two_powers[w]

    def join(m, w):
        if w <= _DECIMAL_LEAF_BITS:
            return D(m)
        half = w >> 1
        hi = m >> half
        return join(m - (hi << half), half) + join(hi, w - half) * two_pow(half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(join(abs(n), abs(n).bit_length()))
    return "-" + digits if n < 0 else digits


def _csv_cell(v, digits=None):
    """v as a CSV cell; an int of more than _DECIMAL_STR_BITS bits prints
    through digits (_decimal_digits unless given)."""
    if isinstance(v, str):
        return v
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    if isinstance(v, int) and v.bit_length() > _DECIMAL_STR_BITS:
        return (digits or _decimal_digits)(v)
    return str(v)


def _json_cell(v, place=None):
    """v as json.dumps takes it.  When place is given, an int of more than
    _DECIMAL_STR_BITS bits stands in as a NUL character followed by
    place(v), the index of its digits, a string that emit swaps for
    them."""
    if isinstance(v, Fraction):
        return {"num": _json_cell(v.numerator, place), "den": _json_cell(v.denominator, place)}
    if isinstance(v, tuple):
        return list(v)
    if place is not None and isinstance(v, int) and v.bit_length() > _DECIMAL_STR_BITS:
        return f"\0{place(v)}"
    return v


#: a big int's stand-in as json.dumps writes it
_JSON_BIG = re.compile(r'"\\u0000(\d+)"')


def emit(rows, header, fmt, out):
    """Single-writer serialization of an iterable of dict rows, written as
    they come; the JSON is json.dumps(list(rows), indent=2), row by row.
    Each distinct big int of the call goes through _decimal_digits once."""
    try:
        opened = open(out, "w") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None
    texts, places = [], {}

    def place(n):
        # the index of n's digits in texts, converted on its first use
        if n not in places:
            places[n] = len(texts)
            texts.append(_decimal_digits(n))
        return places[n]

    def digits(n):
        return texts[place(n)]

    with opened as fh:
        if fmt == "csv":
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows([_csv_cell(row.get(col), digits) for col in header] for row in rows)
            return
        sep = "["
        for row in rows:
            item = json.dumps({k: _json_cell(v, place) for k, v in row.items()}, indent=2)
            if texts:
                item = _JSON_BIG.sub(lambda m: texts[int(m[1])], item)
            fh.write(sep + "\n  " + item.replace("\n", "\n  "))
            sep = ","
        fh.write("[]\n" if sep == "[" else "\n]\n")


def _check_out(out):
    """Refuse an --out path that emit could not open, before any stage
    runs: its directory must exist and be writable, and the path must not
    be a directory or a file that cannot be written.  The file itself is
    left alone, so a later refusal truncates nothing."""
    if out is None:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        raise ConfigError(f"--out: {out!r} is a directory")
    if not os.path.isdir(parent):
        raise ConfigError(f"--out: no directory {parent!r}")
    if not os.access(parent, os.W_OK | os.X_OK) or (os.path.exists(out) and not os.access(out, os.W_OK)):
        raise ConfigError(f"--out: {out!r} is not writable")


def _flag_value(flag, fn, *args):
    """fn(*args), with a ValueError raised by it turned into a ConfigError
    that names the flag the arguments came from."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _field_for(q):
    return _flag_value("--q", ffpoly.field_of_order, q)


def _require_at_least(flag, value, bound, bound_flag=None):
    """ConfigError naming `flag` unless value >= bound (the value of
    `bound_flag` when given)."""
    if value < bound:
        limit = f"{bound_flag} ({bound})" if bound_flag else bound
        raise ConfigError(f"{flag}: must be >= {limit}, got {value}")


def _family_size(field, args):
    """The size of the requested family; ConfigError naming --genus when
    the tables it needs are refused."""
    return _flag_value("--genus", biquad.family_size, field, args.genus, args.variant)


def _require_family(field, args):
    """The size of the requested family; ConfigError naming --genus when
    it is empty or its tables are refused."""
    size = _family_size(field, args)
    if size == 0:
        raise ConfigError(f"--genus: family (q={args.q}, g={args.genus}) is empty")
    return size


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_lfunc(args):
    field = _field_for(args.q)
    _require_at_least("--n-max", args.n_max, 1)
    D = _flag_value("--modulus", parse_poly, field, args.modulus)
    sign = _flag_value("--sign", lfunc.parse_sign, args.sign)
    chi = _flag_value("--modulus", lfunc.QuadChar, D, sign)
    # the L-polynomial's character sums read tables reaching deg D, which
    # refuse a modulus whose sieve passes SIEVE_BYTES_CAP before any is built
    _flag_value("--modulus", poly_tables, field, int(chi.modulus.degree))
    raw, lstar, frob, dev = lfunc.l_data(chi, n_max=args.n_max)
    if args.check_rh and dev >= 1e-9:
        raise InvariantError(f"RH deviation {dev:.3e} exceeds 1e-9")
    row = {
        "modulus": poly_str(chi.modulus),
        "sign": args.sign,
        "raw_coeffs": ";".join(map(str, raw.coeffs)),
        "lambda": raw.lam,
        "delta": raw.delta,
        "lstar_coeffs": ";".join(map(str, lstar.coeffs)),
        "traces_t": ";".join(map(str, frob.t)),
        "rh_max_deviation": dev,
    }
    if args.format == "json":
        row["raw_coeffs"] = list(raw.coeffs)
        row["lstar_coeffs"] = list(lstar.coeffs)
        row["traces_t"] = list(frob.t)
    emit([row], list(row), args.format, args.out)


def _cmd_family(args):
    field = _field_for(args.q)
    size = _family_size(field, args)  # an empty family is a valid answer here
    if args.count:
        size, ratio = biquad.family_size_ratio(field, args.genus, args.variant)
        emit(
            [{"q": args.q, "g": args.genus, "variant": args.variant,
              "size": size, "ratio": float(ratio)}],
            ["q", "g", "variant", "size", "ratio"], args.format, args.out,
        )
        return
    emit(_member_listing(field, args.genus, args.variant, size),
         ["index", "f1", "f2", "f3"], args.format, args.out)


def _member_listing(field, g, variant, size):
    """The family listing's rows, unranked 4096 members at a time: each
    (polynomial, twist) string of a block is formatted once, and the rows
    read them by index."""
    q = field.q
    for lo in range(0, size, 4096):
        polys, rows, twists = biquad.member_rows(field, g, variant, np.arange(lo, min(lo + 4096, size)))
        # key polynomial * q + twist: f1 and f2 under their twists, f3 as it is
        keys = np.hstack([rows[:, :2] * q + twists, rows[:, 2:] * q + 1])
        distinct, at = np.unique(keys, return_inverse=True)
        text = [poly_str(polys[key // q].scale(key % q)) for key in distinct.tolist()]
        for index, (a, b, c) in enumerate(at.reshape(-1, 3).tolist(), lo):
            yield {"index": index, "f1": text[a], "f2": text[b], "f3": text[c]}


def _cmd_curve(args):
    field = _field_for(args.q)
    _require_at_least("--n-max", args.n_max, 1)
    f1, f2, f3 = (_flag_value(flag, parse_poly, field, text)
                  for flag, text in (("--f1", args.f1), ("--f2", args.f2), ("--f3", args.f3)))
    variant = biquad.MONIC if f1.is_monic() and f2.is_monic() else biquad.FULL
    t = _flag_value("--f1, --f2, --f3", biquad.CurveTriple, f1, f2, f3, variant)
    # the counts run to max(n_max, g + 1); past n_max the curve's genus sets the top
    top_flag = "--n-max" if args.n_max > t.genus else "--f1, --f2, --f3"
    data = _flag_value(top_flag, biquad.zeta_numerator, t, args.n_max)
    row = {
        "q": args.q, "genus": t.genus,
        "N": list(data.N[: args.n_max]), "T": list(data.T[: args.n_max]),
        "P_C": list(data.pc),
        "rh_deviation": biquad.pc_rh_deviation(data.pc, field.q),
    }
    if args.format == "csv":
        row["N"] = ";".join(map(str, row["N"]))
        row["T"] = ";".join(map(str, row["T"]))
        row["P_C"] = ";".join(map(str, row["P_C"]))
    emit([row], list(row), args.format, args.out)


MOMENTS_HEADER = [
    "q", "g", "n", "family_size", "avg_T_num", "avg_T_den", "avg_trace",
    "reference", "gap", "roots_term", "bilinear_term", "roots_bound",
    "nongen_bound",
]


def _cmd_moments(args):
    field = _field_for(args.q)
    _require_at_least("--n-max", args.n_max, 1)
    if args.work_budget is not None:
        _require_at_least("--work-budget", args.work_budget, 0)
    if args.mode != "exhaustive":
        _require_at_least("--sample-size", args.sample_size, 1)
        _require_at_least("--seed", args.seed, 0)
    # one sieve table for the command, the top degree's, before any other
    top = max(biquad.family_degrees(args.genus), default=0)
    _flag_value("--genus", biquad.check_family, field, args.genus)
    _flag_value("--n-max" if args.n_max > top else "--genus", poly_tables, field, max(args.n_max, top))
    size = _require_family(field, args)
    # every exhaustive n's totals are checked before any is run
    for n, mode in moments.run_modes(field, size, args.n_max, args.mode, args.work_budget).items():
        if mode == "exhaustive":
            _flag_value("--n-max", moments.check_family_totals, field, args.genus, n)
    rows = moments.theorem_experiment(field, [args.genus], args.n_max, args.variant, args.work_budget,
                                      args.sample_size, args.seed, args.mode)
    for row in rows:
        row["avg_T_num"], row["avg_T_den"] = row["avg_T"].numerator, row["avg_T"].denominator
    emit([{col: row[col] for col in MOMENTS_HEADER} for row in rows], MOMENTS_HEADER, args.format, args.out)


def _cmd_density(args):
    field = _field_for(args.q)
    if args.kernel != "fejer":
        raise ConfigError(f"--kernel: unknown kernel {args.kernel!r}")
    if not 0 < args.alpha <= 1:
        raise ConfigError("--alpha: must lie in (0, 1]")
    _require_at_least("--genus", args.genus, 1)
    fhat = moments.fejer_kernel(args.alpha)
    rep = _flag_value("--genus", moments.one_level_density,
                      field, args.genus, fhat, args.alpha, args.variant)
    row = {
        "q": rep.q, "g": rep.g, "alpha": rep.alpha, "kernel": args.kernel,
        "variant": rep.variant, "terms": list(rep.terms),
        "family_size": rep.family_size,
        "family_value": rep.family_value,
        "reference_value": rep.reference_value,
        "crosscheck_max_gap": rep.crosscheck_max_gap,
    }
    if args.format == "csv":
        row["terms"] = ";".join(map(str, rep.terms))
    emit([row], list(row), args.format, args.out)


def _cmd_lemma61(args):
    field = _field_for(args.q)
    P = _flag_value("--prime", parse_poly, field, args.prime)
    if P.is_constant() or not P.is_monic() or not ffpoly.is_irreducible(P):
        raise ConfigError("--prime: must be monic irreducible")
    _require_at_least("--M", args.M, 1)
    _require_at_least("--d-min", args.d_min, 0)
    _require_at_least("--d-max", args.d_max, args.d_min, "--d-min")
    # the exact products run over the primes up to --M and the series up to
    # --d-max, held to the sieve's reach before anything is built; the
    # prime counts themselves read a table of degree deg P alone
    top = max(args.d_max, args.M, int(P.degree))
    flag = "--d-max" if args.d_max == top else "--M" if args.M == top else "--prime"
    _flag_value(flag, check_sieve, field, top)
    degrees = range(args.d_min, args.d_max + 1)
    preds = {(d, k1, k2): _flag_value("--M", moments.predicted_nkk, P, d, k1, k2, args.M)
             for d in degrees for k1 in (0, 1) for k2 in (0, 1)}
    # top degree first: its series then serves every lower degree
    sums = {d: moments.nkk_sums_all(field, P, d) for d in reversed(degrees)}
    rows = []
    for d in degrees:
        for (k1, k2), exact in sorted(sums[d].items()):
            pred = preds[d, k1, k2]
            rows.append({
                "q": args.q, "P": poly_str(P), "d": d, "k1": k1, "k2": k2,
                "nkk": exact, "predicted": pred, "gap": exact - pred,
                "scaled_gap": abs(exact - pred) / field.q ** (0.6 * d),
            })
    emit(rows, ["q", "P", "d", "k1", "k2", "nkk", "predicted", "gap", "scaled_gap"],
         args.format, args.out)


def _cmd_eulersum(args):
    field = _field_for(args.q)
    _require_at_least("--n", args.n, 1)
    _require_at_least("--M", args.M, 1)
    rows = []
    kinds = eulerprod.KINDS if args.kind == "all" else (args.kind,)
    for kind in kinds:
        r = _flag_value("--n, --M", eulerprod.prime_sum, kind, field, args.n, args.M)
        rows.append({
            "q": args.q, "n": args.n, "M": args.M, "kind": kind,
            "sum_num": r.num, "sum_den": r.den,
            "reference_num": r.reference.numerator,
            "reference_den": r.reference.denominator,
            "scaled_gap": r.scaled_gap,
        })
    emit(rows, ["q", "n", "M", "kind", "sum_num", "sum_den",
                "reference_num", "reference_den", "scaled_gap"],
         args.format, args.out)


def _cmd_primes(args):
    field = _field_for(args.q)
    _require_at_least("--degree", args.degree, 1)
    ps = _flag_value("--degree", ffpoly.primes, field, args.degree)
    if args.count:
        emit([{"q": args.q, "degree": args.degree, "count": len(ps)}],
             ["q", "degree", "count"], args.format, args.out)
    else:
        rows = [{"index": i, "prime": poly_str(p)} for i, p in enumerate(ps)]
        emit(rows, ["index", "prime"], args.format, args.out)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


#: argparse messages that end in a list of arguments, and what they say
_LISTED = {"the following arguments are required: ": "required",
           "unrecognized arguments: ": "unrecognized"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on usage errors by default; config errors are 1,
        # and their message leads with the flags, the usage comes after
        for prefix, verdict in _LISTED.items():
            if message.startswith(prefix):
                message = f"{message[len(prefix):]}: {verdict}"
                break
        else:
            message = re.sub(r"^argument ([^:]+): ", r"\1: ", message)
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def _add_common(sp, *, genus=False, variant=False):
    sp.add_argument("--q", type=int, required=True, help="odd prime power >= 3")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--cache-dir", default=None,
                    help="accepted for compatibility; has no effect")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    if genus:
        sp.add_argument("--genus", type=int, required=True)
    if variant:
        sp.add_argument("--variant", choices=(biquad.MONIC, biquad.FULL),
                        default=biquad.FULL)


def _lfunc_flags(sp):
    _add_common(sp)
    sp.add_argument("--modulus", required=True)
    sp.add_argument("--sign", default="plus")
    sp.add_argument("--n-max", type=int, default=8)
    sp.add_argument("--check-rh", action="store_true")


def _family_flags(sp):
    _add_common(sp, genus=True, variant=True)
    sp.add_argument("--count", action="store_true")


def _curve_flags(sp):
    _add_common(sp)
    sp.add_argument("--f1", required=True)
    sp.add_argument("--f2", required=True)
    sp.add_argument("--f3", required=True)
    sp.add_argument("--n-max", type=int, default=4)


def _moments_flags(sp):
    _add_common(sp, genus=True, variant=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--mode", choices=("exhaustive", "sample", "auto"),
                    default="exhaustive")
    sp.add_argument("--sample-size", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--work-budget", type=int, default=None,
                    help="cost cap (members x points) before sampling kicks in")


def _density_flags(sp):
    _add_common(sp, genus=True, variant=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--kernel", default="fejer")


def _lemma61_flags(sp):
    _add_common(sp)
    sp.add_argument("--prime", required=True)
    sp.add_argument("--d-min", type=int, default=0)
    sp.add_argument("--d-max", type=int, required=True)
    sp.add_argument("--M", type=int, default=8)


def _eulersum_flags(sp):
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--kind", choices=eulerprod.KINDS + ("all",), default="all")


def _primes_flags(sp):
    _add_common(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--count", action="store_true")


def _commands():
    """name -> (handler, help text, function adding the command's flags).
    Read at parse time, so the handlers are the module's current ones."""
    return {
        "lfunc": (_cmd_lfunc, "L-polynomial of a quadratic character", _lfunc_flags),
        "family": (_cmd_family, "enumerate or count a curve family", _family_flags),
        "curve": (_cmd_curve, "point counts and zeta numerator of one curve", _curve_flags),
        "moments": (_cmd_moments, "family trace averages with error split", _moments_flags),
        "density": (_cmd_density, "one-level density vs matrix-integral reference", _density_flags),
        "lemma61": (_cmd_lemma61, "fixed-prime parity sums vs residue constants", _lemma61_flags),
        "eulersum": (_cmd_eulersum, "truncated Euler products summed over primes", _eulersum_flags),
        "primes": (_cmd_primes, "monic prime polynomials of one degree", _primes_flags),
    }


def build_parser():
    """The parser of every command, each a subparser of `ffstat`."""
    ap = _Parser(prog="ffstat", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, text, add_flags) in _commands().items():
        sp = sub.add_parser(name, help=text)
        add_flags(sp)
        sp.set_defaults(fn=fn)
    return ap


def _parse(argv):
    """argv's Namespace.  When argv[0] names a command, only that
    command's parser is built, with the prog its subparser has; the full
    parser is built for no command, an unknown one or a top-level -h,
    whose usage, listing or error names all eight."""
    entry = _commands().get(argv[0]) if argv else None
    if entry is None:
        return build_parser().parse_args(argv)
    fn, _, add_flags = entry
    ap = _Parser(prog=f"ffstat {argv[0]}")
    add_flags(ap)
    ap.set_defaults(fn=fn)
    return ap.parse_args(argv[1:])


def main(argv=None):
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    # exact numerators/denominators can run to thousands of digits; lift
    # the int-to-str conversion cap while they serialize, then restore it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        _check_out(args.out)
        args.fn(args)
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
