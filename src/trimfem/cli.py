"""Command-line harness for the element studies.

Subcommands mirror the four experiments plus DOF and element reports:

    trimfem project       --dim 2 --element SminusCurl --order 2 --levels 8,16,32
    trimfem poisson       --dim 2 --element S --order 2 --levels 8,16,32,64
    trimfem mixed-poisson --dim 2 --element SminusDiv --order 2 --levels 8,16,32
    trimfem maxwell-eig   --element SminusCurl --order 2 --levels 4,8
    trimfem dofs          --dim 3 --form-degree 1 --orders 1,2,3 --divisions 16
    trimfem element-dump  --dim 3 --element SminusCurl --order 2

Convergence experiments print a rate table and optionally write CSV files
with the columns h,Dofs,Error,Time,rate (--out).  Exit status is nonzero
on failure, with a message naming the failing stage.
"""

import argparse
import sys

from .experiments import (
    format_maxwell,
    format_rows,
    report_dofs,
    run_maxwell_eig,
    run_mixed_poisson,
    run_primal_poisson,
    run_projection,
    write_csv,
    write_table,
)
from .refelem import _NAME_TABLE, element_by_name, element_dump, family_label

# convergence subcommand -> (help, study, the push-forward it builds with)
_STUDIES = {
    "project": ("L2 projection onto an H(curl) space", run_projection, "covariant"),
    "poisson": ("primal Poisson with Dirichlet BCs", run_primal_poisson, "h1"),
    "mixed-poisson": ("mixed Poisson saddle-point solve", run_mixed_poisson,
                      "contravariant"),
}


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def _family_of(name, mapping, n, order):
    """Family of the named element, which must push forward by `mapping`
    (the usage names of that mapping are the ones usable) and exist in nD."""
    allowed = [usage for usage, row in _NAME_TABLE.items() if row[2] == mapping]
    if name in _NAME_TABLE and name not in allowed:
        raise ValueError(
            f"element {name!r} not usable here; choose one of {', '.join(allowed)}"
        )
    return element_by_name(name, n, order).family


def _add_common(p, with_dim=True):
    if with_dim:
        p.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p.add_argument("--element", required=True, help="usage name, e.g. SminusCurl")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out", help="CSV output path")


def _given(args):
    """--tol, --target and --nev where given: the studies declare their defaults."""
    return {k: v for k, v in vars(args).items() if k in ("tol", "target", "nev")}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="trimfem",
        description="trimmed serendipity vs tensor-product element studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, _, _) in _STUDIES.items():
        p = sub.add_parser(command, help=help_text)
        _add_common(p)
        p.add_argument("--levels", type=_int_list, default=[4, 8, 16, 32])

    p = sub.add_parser("maxwell-eig", help="cavity resonator eigenvalues (3D)")
    _add_common(p, with_dim=False)
    p.add_argument("--levels", type=_int_list, default=[4, 8])
    p.add_argument("--target", type=float, default=argparse.SUPPRESS)
    p.add_argument("--nev", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("dofs", help="global DOF comparison of both families")
    p.add_argument("--dim", type=int, default=3, choices=(2, 3))
    p.add_argument("--form-degree", type=int, default=1)
    p.add_argument("--orders", type=_int_list, default=[1, 2, 3, 4, 5, 6])
    p.add_argument("--divisions", type=int, default=16)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("element-dump", help="print a reference element report")
    p.add_argument("--dim", type=int, default=3, choices=(2, 3))
    p.add_argument("--element", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--out", help="text output path")
    return parser


def _run(args):
    if args.command in _STUDIES:
        _, study, mapping = _STUDIES[args.command]
        family = _family_of(args.element, mapping, args.dim, args.order)
        rows = study(args.dim, family, args.order, args.levels, **_given(args))
        print(format_rows(rows))
        if args.out:
            write_csv(rows, args.out)
        return
    if args.command == "maxwell-eig":
        family = _family_of(args.element, "covariant", 3, args.order)
        report = run_maxwell_eig(family, args.order, args.levels, **_given(args))
        print(format_maxwell(report))
        if args.out:
            _write_maxwell_csvs(report, args.out)
        return
    if args.command == "dofs":
        rows = report_dofs(args.dim, args.form_degree, args.orders, args.divisions)
        s_head, q_head = (family_label(f) + " DOFs" for f in "SQ")
        print(f"{'r':>4} {s_head:>12} {q_head:>12}")
        for row in rows:
            print(f"{row['r']:>4} {row['trimmed']:>12} {row['tensor']:>12}")
        if args.out:
            header = ["r", "trimmed", "tensor"]
            write_table(args.out, header, ([row[h] for h in header] for row in rows))
        return
    # element-dump, the last of the subcommands that argparse requires
    text = element_dump(element_by_name(args.element, args.dim, args.order))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_maxwell_csvs(report, prefix):
    """One CSV per tracked eigenvalue: its error series, one row per level
    that found it (Error = |lambda_h - lambda|)."""
    for e, rows in report.series.items():
        write_csv([row for row in rows if row is not None],
                  f"{prefix}_eigenvalue{e}.csv")


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        _run(args)
    except Exception as err:  # noqa: BLE001 - report the failing stage
        print(f"trimfem {args.command}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
