"""Batch front door.

Subcommands: validate | invariant | enumerate | move | classify | h3 |
colour-diagram | catalog. JSON in, JSON out (TSV opt-in for tables with
--format tsv). Exit codes: 0 success, 1 malformed input or usage error,
2 domain error (reported as a machine-readable error object).

Output is byte-stable: keys sorted, two-space indent, trailing newline.
"""

import argparse
import json
import sys

from . import abelian, classify, diagram, invariants, surface_data
from .errors import ArtifactError, GroupMismatch


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path):
    """Parse an input file; every leaf must be a JSON integer, so floats,
    booleans, strings and nulls are usage errors, never coerced."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        raise _UsageError(f"cannot read {path}: {e}") from None
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, (dict, list)):
            stack.extend(x.values() if isinstance(x, dict) else x)
        elif type(x) is not int:
            raise _UsageError(f"{path}: {json.dumps(x)} is not an integer")
    return obj


def _load_matrix(path):
    """A matrix file holds a JSON array of rows; anything else is a usage
    error, while malformed rows are the library's domain errors."""
    obj = _load_json(path)
    if not isinstance(obj, list):
        raise _UsageError(f"{path}: expected a JSON array of matrix rows")
    return obj


def _convert(src, fn, *args):
    """Run a JSON-to-object conversion; structural junk is a usage error,
    domain errors pass through untouched."""
    try:
        return fn(*args)
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise _UsageError(f"{src}: malformed input ({e})") from None


def _load_group(args, embedded=None):
    """Group spec from --group and/or the data file's own 'group' field."""
    flag_spec = None
    if getattr(args, "group", None):
        flag_spec = _convert(args.group, abelian.group_from_json,
                             _load_json(args.group))
    if embedded is not None:
        data_spec = _convert(args.data, abelian.group_from_json, embedded)
        if flag_spec is not None and flag_spec != data_spec:
            raise GroupMismatch("--group disagrees with the data file's group")
        return data_spec
    if flag_spec is None:
        raise _UsageError("no group: pass --group or embed one in the data")
    return flag_spec


def _load_data(args):
    obj = _load_json(args.data)
    if not isinstance(obj, dict) or "seifert" not in obj or "vector" not in obj:
        raise _UsageError(f"{args.data}: expected seifert/vector data JSON")
    spec = _load_group(args, obj.get("group"))
    return _convert(args.data, surface_data.make_data,
                    spec, obj["seifert"], obj["vector"])


def _wedge_json(w):
    pairs = abelian.pair_indices(w.spec)
    return {"pairs": [[i + 1, j + 1, c]
                      for (i, j), c in zip(pairs, w.coords)]}


def _entry_json(e):
    return {
        "k": e.k, "l": e.l, "i": e.i, "name": e.name,
        "su": list(e.su.coords), "cu": list(e.cu.coords),
        "s": list(e.s.coords),
        "data": surface_data.data_to_json(e.data),
    }


def _bound_json(b):
    return list(b) if isinstance(b, tuple) else b


def _table_json(t):
    return {
        "family": t.family,
        "group": abelian.group_to_json(t.group),
        "upper_bound": t.upper_bound,
        "lower_bound": _bound_json(t.lower_bound),
        "notes": list(t.notes),
        "entries": [_entry_json(e) for e in t.entries],
    }


def _tsv_cell(v):
    if v is None:
        return ""
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _table_tsv(t):
    lines = [f"# family\t{t.family}",
             f"# upper_bound\t{t.upper_bound}",
             f"# lower_bound\t{_tsv_cell(t.lower_bound)}"]
    for note in t.notes:
        lines.append(f"# note\t{note}")
    lines.append("k\tl\ti\tname\tsu\tcu\ts")
    for e in t.entries:
        lines.append("\t".join([
            _tsv_cell(e.k), _tsv_cell(e.l), _tsv_cell(e.i), e.name,
            _tsv_cell(e.su.coords), _tsv_cell(e.cu.coords),
            _tsv_cell(e.s.coords)]))
    sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args):
    report = surface_data.validate(_load_data(args))
    _emit({"valid": report.valid, "generates": report.generates,
           "equation_holds": report.equation_holds,
           "genus_ok": report.genus_ok})
    return 0


def _cmd_invariant(args):
    data = _load_data(args)
    _emit({"su": list(invariants.su(data).coords),
           "cu": list(invariants.cu(data).coords),
           "s": _wedge_json(invariants.vector_class(data))})
    return 0


def _cmd_enumerate(args):
    spec = _load_group(args)
    matrix = _load_matrix(args.matrix)
    found = _convert(args.matrix, surface_data.enumerate_colourings,
                     matrix, spec, args.max_search)
    _emit({"count": len(found),
           "colourings": [[list(v.coords) for v in vec] for vec in found]})
    return 0


def _cmd_move(args):
    data = _load_data(args)
    if args.lambda1:
        result = _convert(args.lambda1, surface_data.lambda1,
                          data, _load_matrix(args.lambda1))
    elif args.lambda2 is not None:
        try:
            c = [int(x) for x in args.lambda2.split(",")]
        except ValueError:
            raise _UsageError("--lambda2 wants comma-separated integers") \
                from None
        result = surface_data.lambda2(data, c, args.variant)
    else:
        result = surface_data.lambda2_inverse(data)
    _emit(surface_data.data_to_json(result))
    return 0


def _cmd_classify(args):
    if args.family == "metacyclic":
        table = classify.metacyclic_table(args.m, args.n, args.xi,
                                          args.max_search)
    elif args.family == "rank2diag":
        table = classify.rank2_diag_table(args.m, args.n1, args.n2,
                                          args.xi1, args.xi2, args.max_search)
    elif args.family == "rank2nondiag":
        table = classify.rank2_nondiag_table(
            args.m, args.n, ((0, 1), (args.n21, args.n22)), args.max_search)
    else:
        table = classify.a4_representatives()
    if args.format == "tsv":
        _table_tsv(table)
    else:
        _emit(_table_json(table))
    return 0


def _cmd_h3(args):
    if (args.group is None) == (args.orders is None):
        raise _UsageError("pass exactly one of --group or --orders")
    if args.group:
        carrier = _convert(args.group, abelian.group_from_json,
                           _load_json(args.group))
    else:
        try:
            carrier = tuple(int(x) for x in args.orders.split(","))
        except ValueError:
            raise _UsageError("--orders wants comma-separated integers") \
                from None
    _emit({"h3_order": abelian.h3_order(carrier)})
    return 0


def _cmd_colour_diagram(args):
    spec = _load_group(args)
    pd = diagram.diagram_from_json(_load_json(args.pd))
    found = diagram.enumerate_diagram_colourings(pd, spec,
                                                 budget=args.max_search)
    _emit({"count": len(found),
           "colourings": [[[arc, list(col.labels[arc].coords)]
                           for arc in sorted(col.labels)] for col in found]})
    return 0


def _cmd_catalog(args):
    _emit({"diagrams": {name: diagram.diagram_to_json(d)
                        for name, d in diagram.catalog().items()}})
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser():
    top = _Parser(prog="knotcolour",
                  description="coloured-knot surface data toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a surface datum")
    p.add_argument("--group")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariant", help="su, cu and s of a surface datum")
    p.add_argument("--group")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("enumerate",
                       help="all valid colouring vectors for a matrix")
    p.add_argument("--group", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-search", type=int, default=10 ** 7)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("move", help="apply an S-equivalence move")
    p.add_argument("--group")
    p.add_argument("--data", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--lambda1", metavar="U_JSON")
    g.add_argument("--lambda2", metavar="C_VECTOR")
    g.add_argument("--lambda2-inverse", action="store_true")
    p.add_argument("--variant", type=int, choices=(1, 2), default=2)
    p.set_defaults(func=_cmd_move)

    p = sub.add_parser("classify", help="emit a base-knot family table")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("metacyclic")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--xi", type=int, required=True)
    q = fam.add_parser("rank2diag")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n1", type=int, required=True)
    q.add_argument("--n2", type=int, required=True)
    q.add_argument("--xi1", type=int, required=True)
    q.add_argument("--xi2", type=int, required=True)
    q = fam.add_parser("rank2nondiag")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--n21", type=int, required=True)
    q.add_argument("--n22", type=int, required=True)
    # the parameterised families bound their entry count; a4 has 8 entries
    for q in fam.choices.values():
        q.add_argument("--max-search", type=int, default=10 ** 7)
    fam.add_parser("a4")
    for q in fam.choices.values():
        q.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("h3", help="bordism upper bound of the kernel")
    p.add_argument("--group")
    p.add_argument("--orders")
    p.set_defaults(func=_cmd_h3)

    p = sub.add_parser("colour-diagram",
                       help="quandle colourings of a PD-coded diagram")
    p.add_argument("--group", required=True)
    p.add_argument("--pd", required=True)
    p.add_argument("--max-search", type=int, default=10 ** 7)
    p.set_defaults(func=_cmd_colour_diagram)

    p = sub.add_parser("catalog", help="built-in PD diagrams")
    p.set_defaults(func=_cmd_catalog)
    return top


def _glue_lambda2(argv):
    """Rewrite '--lambda2 -2,1' as '--lambda2=-2,1'; argparse would read a
    value that starts with '-' and is not a plain number as a flag."""
    out = []
    for a in argv:
        if out and out[-1] == "--lambda2" and a[:1] == "-" and a[1:2].isdigit():
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_lambda2(argv))
        return args.func(args)
    except _UsageError as e:
        _emit({"error": {"type": "UsageError", "message": str(e)}})
        return 1
    except SystemExit as e:
        # argparse exits directly for --help
        return 0 if e.code in (0, None) else e.code
    except ArtifactError as e:
        _emit({"error": {"type": type(e).__name__, "message": str(e)}})
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
