"""Command-line interface: verification runs emitting JSON reports.

Exit codes: 0 = expectations verified, 1 = input error (a usage error too),
2 = mismatch.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import classify as C
from . import geometry as G
from . import serialization as S
from . import symspace as Y
from .config import DEFAULT_TOL
from .curvspace import MAX_BERGER_N, berger_check
from .lie import unitary_basis

EXIT_OK, EXIT_INPUT, EXIT_MISMATCH = 0, 1, 2


def _add_jet(sub, rmax: bool = True):
    sub.add_argument("--order", type=int, default=None,
                     help="jet order of the potential; wins over the file's order, "
                          "which wins over the default 8")
    if rmax:
        sub.add_argument("--rmax", type=int, default=4)


def _add_common(sub):
    sub.add_argument("--expect", type=str, default=None)
    sub.add_argument("--out", type=str, default=None)


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one line and exit 1, where argparse
    would print the usage and exit 2, the code of a mismatch.  The
    subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lkholonomy")
    sp = ap.add_subparsers(dest="command", required=True)

    h = sp.add_parser("holonomy", help="holonomy algebra of a metric")
    h.add_argument("--potential", required=True)
    _add_jet(h)
    _add_common(h)

    c = sp.add_parser("classify", help="match an algebra to a canonical family")
    c.add_argument("--algebra", required=True)
    _add_common(c)

    b = sp.add_parser("berger", help="curvature-space / Berger test")
    b.add_argument("--algebra", required=True)
    _add_common(b)

    p = sp.add_parser("ppwave", help="pp-wave condition checks")
    p.add_argument("--metric", required=True)
    _add_jet(p)
    _add_common(p)

    y = sp.add_parser("symspace", help="symmetric-space transvection checks")
    y.add_argument("--family", required=True, choices=list("abcdef"))
    y.add_argument("--n", type=int, default=0)
    y.add_argument("--m", type=int, default=0)
    _add_common(y)

    v = sp.add_parser("validate", help="metric invariants of a potential")
    v.add_argument("--potential", "--metric", dest="potential", required=True)
    _add_jet(v, rmax=False)
    _add_common(v)

    k = sp.add_parser("catalog", help="canonical family list with dimensions")
    k.add_argument("--n", type=int, required=True)
    _add_common(k)
    return ap


def _finish(args, command: str, payload: dict, ok: bool,
            tolerances: dict) -> int:
    report = S.make_report(command, payload, tolerances)
    if getattr(args, "expect", None):
        expected = S.load_json(args.expect)
        errs = S.compare_expected(expected, report["result"])
        report["expectation_errors"] = errs
        ok = not errs
    text = S.dump_json(report, getattr(args, "out", None))
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_holonomy(args) -> int:
    m = S.build_metric_from_config(S.load_json(args.potential), args.order)
    hol = G.infinitesimal_holonomy(m, r_max=args.rmax)
    d = C.match_algebra(hol.algebra)
    ric = G.ricci(m)
    ric_max = max(jet.max_abs() for jet in ric.ravel())
    payload = {
        "dims_by_order": hol.dims_by_order,
        "stabilized": hol.stabilized,
        "dim": hol.algebra.dim,
        "matched_family": d.family,
        "descriptor": d,
        "ricci_flat": bool(ric_max < DEFAULT_TOL.rank_rel),
        "bracket_residual": hol.bracket_residual,
        "realizable": C.is_holonomy_realizable(d) if d.family != "UNKNOWN" else "unknown",
    }
    ok = hol.stabilized and d.family != "UNKNOWN"
    return _finish(args, "holonomy", payload,
                   ok, {"tol": DEFAULT_TOL.rank_rel, "r_max": args.rmax})


def _cmd_classify(args) -> int:
    alg = S.decode_algebra(S.load_json(args.algebra))
    d = C.match_algebra(alg)
    payload = {
        "matched_family": d.family,
        "descriptor": d,
        "dim": alg.dim,
        "family_dim": C.family_dim(d) if d.family != "UNKNOWN" else None,
        "realizable": C.is_holonomy_realizable(d) if d.family != "UNKNOWN" else "unknown",
    }
    return _finish(args, "classify", payload, d.family != "UNKNOWN",
                   {"rank_rel": DEFAULT_TOL.rank_rel})


def _cmd_berger(args) -> int:
    obj = S.load_json(args.algebra)
    n = obj.get("n")
    if isinstance(n, int) and n > MAX_BERGER_N:
        raise ValueError(f"berger takes n <= {MAX_BERGER_N}, not {n}")
    alg = S.decode_algebra(obj)
    res = berger_check(alg)
    payload = {
        "dim": alg.dim,
        "dim_R_space": res["dim_R_space"],
        "is_berger": res["is_berger"],
        "generated_dim": res["generated"].dim,
    }
    return _finish(args, "berger", payload, True,
                   {"rank_rel": DEFAULT_TOL.rank_rel})


def _cmd_ppwave(args) -> int:
    m = S.build_metric_from_config(S.load_json(args.metric), args.order)
    rep = G.ppwave_check(m, r_max=args.rmax)
    return _finish(args, "ppwave", rep, rep.consistent,
                   {"tol": DEFAULT_TOL.rank_rel, "r_max": args.rmax})


def _cmd_symspace(args) -> int:
    pair = Y.canonical_pair(args.family, _bounded_n(args.n), args.m)
    rep = Y.symspace_report(pair, args.family, args.m)
    ok = rep.jacobi and rep.g_equals_image
    return _finish(args, "symspace", rep, ok,
                   {"jacobi": DEFAULT_TOL.residual})


def _cmd_validate(args) -> int:
    m = S.build_metric_from_config(S.load_json(args.potential), args.order)
    F = G.witt_frame(m)
    payload = {
        "n": m.n,
        "hermitian_residual": m.hermitian_residual(),
        "kahler_residual": m.kahler_residual(),
        "walker": m.walker_report(),
        "is_walker": m.is_walker(),
        "inverse_residual": G.inverse_residual(m),
        "frame_gram_residual": G.frame_gram_residual(m, F),
    }
    ok = all(payload[key] < DEFAULT_TOL.rank_rel for key in (
        "hermitian_residual", "kahler_residual", "inverse_residual", "frame_gram_residual"))
    return _finish(args, "validate", payload, ok, {"tol": DEFAULT_TOL.rank_rel})


def _bounded_n(n: int) -> int:
    """--n of catalog and symspace, at least 0 and at most the n of a
    potential or metric file: the catalog grows about as n^5 (93 MB of JSON
    at n = 16)."""
    if n < 0:
        raise ValueError(f"--n must be at least 0, not {n}")
    if n > S.MAX_METRIC_N:
        raise ValueError(f"--n must be at most {S.MAX_METRIC_N}, not {n}")
    return n


def _catalog_entries(n: int) -> list[dict]:
    entries: list[dict] = []
    if n == 0:
        for d in (C.N0Descriptor("G0"), C.N0Descriptor("G1"), C.N0Descriptor("G2"),
                  C.N0Descriptor("G3", 1.0), C.N0Descriptor("G3")):
            entries.append({"descriptor": d, "dim": C.family_dim(d)})
        return entries
    gk = C.KLDescriptor(n, n, [(1.0, np.zeros((n, n), complex))]
                        + [(0.0, A) for A in unitary_basis(n)])
    entries.append({"descriptor": gk, "dim": C.family_dim(gk)})
    for m in range(n):
        jl = C.KLDescriptor(n, m, [(1j, np.zeros((m, m), complex))]
                            + [(0.0, A) for A in unitary_basis(m)])
        entries.append({"descriptor": jl, "dim": C.family_dim(jl)})
    for m in range(n + 1):
        kl = C.KLDescriptor(n, m, [(0.0, A) for A in unitary_basis(m)])
        entries.append({"descriptor": kl, "dim": C.family_dim(kl)})
    # GK0PSI, q = m - r: ker psi holds no complex line of C^q, or the matcher
    # reads more than C^r; psi's abelian image has dim <= r, so q <= r.
    for r in range(1, n + 1):
        ur = unitary_basis(r)
        for m in range(r, min(2 * r, n) + 1):
            q = m - r
            if q <= 1:
                # psi = iE maps into the centre i R of u(r), which k0 = su(r) avoids
                k0 = [ur[j] - ur[j + 1] for j in range(r - 1)] + ur[r:]
                psi = [1j * np.eye(r, dtype=complex) for _ in range(2 * q + n - m)]
            else:
                # psi(e_{r+j}) = psi(i e_{r+j}) = i E_jj and psi = i E_11 on L_0;
                # k0 = u(r - q) on the block where psi is zero
                k0 = [np.pad(A, (q, 0)) for A in unitary_basis(r - q)]
                psi = ur[:q] * 2 + ur[:1] * (n - m)
            if psi:
                d = C.GK0PsiDescriptor(n, m, r, k0, psi)
                entries.append({"descriptor": d, "dim": C.family_dim(d)})
    return entries


def _cmd_catalog(args) -> int:
    entries = _catalog_entries(_bounded_n(args.n))
    payload = {"n": args.n, "families": entries, "count": len(entries)}
    return _finish(args, "catalog", payload, True, {})


_DISPATCH = {
    "holonomy": _cmd_holonomy,
    "classify": _cmd_classify,
    "berger": _cmd_berger,
    "ppwave": _cmd_ppwave,
    "symspace": _cmd_symspace,
    "validate": _cmd_validate,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
