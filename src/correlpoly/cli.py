"""Command-line front end: enumerate two-valued states, derive facet
inequalities, compute quantum bounds, and verify vector realizations.

Exit codes: 0 success; 1 input/usage error; 2 the logic admits no two-valued
state; 3 golden-file mismatch; 4 realization verification failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

from . import _text


def _lazy_module(name):
    """The module `name`, registered in sys.modules and on its package but
    executed only when an attribute of it is first read
    (importlib.util.LazyLoader)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


# Each command executes only the layers it uses: `states` runs logic_core
# alone, `verify` adds realization, `hull` vertex_gen and exact_hull (and
# numpy), `quantum` numpy and realization.  Lazy modules, unlike imports
# inside the commands, keep `import correlpoly.cli` registering all six
# layers in sys.modules, where bench/tracer.py finds them.
exact_hull = _lazy_module("correlpoly.exact_hull")
logic_core = _lazy_module("correlpoly.logic_core")
quantum = _lazy_module("correlpoly.quantum")
realization = _lazy_module("correlpoly.realization")
vertex_gen = _lazy_module("correlpoly.vertex_gen")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_STATES = 2
EXIT_GOLDEN_MISMATCH = 3
EXIT_VERIFY_FAIL = 4


def _digest(text):
    """The first 16 hex digits of the SHA-256 of text's UTF-8 bytes.  The
    hash comes from CPython's built-in module, as in `random`: hashlib loads
    OpenSSL's libcrypto, 3.4 MiB of peak RSS, which no other part of a run
    needs."""
    try:
        from _sha2 import sha256            # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256      # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256      # a build without either
    return sha256(text.encode()).hexdigest()[:16]


class _Run:
    """Deterministic run report: command echo and input digests go into the
    output; wall time goes to stderr only.  An input is hashed only when its
    digest is printed."""

    def __init__(self, argv):
        self.echo = "correlpoly " + " ".join(argv)
        self.inputs = []    # (name, text)
        self.t0 = time.perf_counter()

    def add_input(self, name, text):
        self.inputs.append((name, text))

    def comments(self):
        out = [self.echo]
        out += [f"input {name} sha256:{_digest(text)}" for name, text in self.inputs]
        return out

    def finish(self):
        print(f"[{self.echo}] done in {time.perf_counter() - self.t0:.2f}s", file=sys.stderr)


def _load(spec, prefix, load, parse, run):
    """Resolve `<prefix><name>` or a file path into a parsed object."""
    text, value = _text.read_source(spec, prefix, load, parse, None)
    run.add_input(spec, text)
    return value


def _load_logic(spec, run):
    return _load(spec, "builtin:", logic_core.load_builtin, logic_core.parse_logic, run)


# --- states -----------------------------------------------------------------

def cmd_states(args, run):
    logic = _load_logic(args.logic, run)
    states = logic_core.enumerate_states(logic)
    unseparated = (logic_core.is_separating(logic, states)
                   if args.check_separating and states else None)
    cert = None if states else logic_core.parity_certificate(logic)
    if args.format == "json":
        import json

        doc = {
            "logic": logic.name,
            "atoms": list(logic.atoms),
            "count": len(states),
            "states": [list(s) for s in states],
        }
        if cert:
            doc["parity_certificate"] = {
                "contexts": cert.context_count,
                "atom_context_counts": list(cert.atom_context_counts),
            }
        if unseparated is not None:
            doc["unseparated_pairs"] = [list(p) for p in unseparated]
        print(json.dumps(doc, indent=2))
    elif args.format == "dd":
        # a V-representation needs a point: with no state there is nothing
        # to emit but the certificate below
        if states:
            v = exact_hull.VRep(len(logic.atoms), tuple(states))
            print(exact_hull.emit_dd(v, comments=run.comments()), end="")
    else:
        print(f"{len(states)} states")
        print(" ".join(logic.atoms))
        for s in states:
            print(" ".join(str(b) for b in s))
        if unseparated is not None:
            if unseparated:
                print("unseparated pairs: " +
                      ", ".join(f"({x},{y})" for x, y in unseparated))
            else:
                print("state set is separating")
    if not states:
        if cert and args.format != "json":
            print(f"parity certificate: {cert.context_count} contexts (odd); "
                  "every atom lies in an even number of contexts "
                  f"{sorted(set(cert.atom_context_counts))}")
        return EXIT_NO_STATES
    return EXIT_OK


# --- hull -------------------------------------------------------------------

def _golden_mismatch(out, golden):
    """One line per row that only the computed or only the golden
    representation has; none when they match.  out is canonical already,
    as hull() returns it, and a golden H-representation is made so."""
    if isinstance(out, exact_hull.HRep):
        if not isinstance(golden, exact_hull.HRep):
            raise ValueError("golden file is not an H-representation")
        golden = exact_hull.canonicalize(golden)
        parts = ((" linearity", out.linearities, golden.linearities),
                 (" inequality", out.inequalities, golden.inequalities))
    else:
        if not isinstance(golden, exact_hull.VRep):
            raise ValueError("golden file is not a V-representation")
        parts = (("", out.points, golden.points),)
    msgs = []
    for label, ours, theirs in parts:
        a, b = set(ours), set(theirs)
        msgs += [f"only in computed{label}: {' '.join(map(_text.exact_str, row))}"
                 for row in sorted(a - b)]
        msgs += [f"only in golden{label}: {' '.join(map(_text.exact_str, row))}"
                 for row in sorted(b - a)]
    return msgs


def cmd_hull(args, run):
    if args.input:
        text = Path(args.input).read_text()
        run.add_input(args.input, text)
        rep = exact_hull.parse_dd(text)
    elif args.logic:
        logic = _load_logic(args.logic, run)
        if args.noncontextual:
            rep = vertex_gen.gen_noncontextual_vertices(logic)
        else:
            if not args.terms:
                raise ValueError("--logic needs --terms (or --noncontextual)")
            terms = _load(args.terms, "preset:",
                          lambda name: vertex_gen.load_preset_terms(name, logic),
                          lambda text: vertex_gen.parse_terms(text, logic), run)
            rep = vertex_gen.gen_state_vertices(logic, terms)
    else:
        raise ValueError("hull needs --input or --logic")

    if args.reverse:
        if not isinstance(rep, exact_hull.HRep):
            raise ValueError("--reverse expects an H-representation input")
        out = exact_hull.vertices(rep)
    else:
        if not isinstance(rep, exact_hull.VRep):
            raise ValueError("forward hull expects a V-representation input")
        out = exact_hull.hull(rep)

    text = exact_hull.emit_dd(out, comments=run.comments())
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")

    if isinstance(out, exact_hull.HRep):
        print(f"{len(out.inequalities)} inequalities, {len(out.linearities)} linearities",
              file=sys.stderr)
    else:
        print(f"{len(out.points)} vertices", file=sys.stderr)

    if args.golden:
        suffix = ".ext" if args.reverse else ".ine"
        golden = _load(args.golden, "builtin:",
                       lambda name: exact_hull.parse_dd(_text.bundled(name, suffix)),
                       exact_hull.parse_dd, run)
        msgs = _golden_mismatch(out, golden)
        if msgs:
            print("golden mismatch:")
            for m in msgs:
                print("  " + m)
            return EXIT_GOLDEN_MISMATCH
        print("golden match", file=sys.stderr)
    return EXIT_OK


# --- quantum ----------------------------------------------------------------

def cmd_quantum(args, run):
    import json

    if args.preset:
        expr = quantum.load_preset_expr(args.preset)
    elif args.expr:
        expr = quantum.parse_operator_expr(Path(args.expr).read_text(),
                                           base_dir=Path(args.expr).parent)
    else:
        raise ValueError("quantum needs --expr or --preset")

    overrides = {}
    for kv in args.param or []:
        name, sep, val = kv.partition("=")
        if not (name and sep and val):
            raise ValueError(f"--param expects NAME=VALUE, got {kv!r}")
        try:
            overrides[name] = _text.real(val)
        except ValueError as exc:
            raise ValueError(f"--param {name}: {exc}") from None
    params = expr.defaults
    params.update(overrides)
    if args.optimize and not expr.param_names:
        # the check of maximize_bound, made before the operator is built
        raise ValueError("no free parameters to optimize")

    op = quantum.realize_operator(expr, overrides)
    evs = quantum.eigenvalues(op)
    doc = {
        "eigenvalues": [float(x) for x in evs],
        "lambda_max": float(evs[-1]),
        "params": params,
    }
    if args.state:
        doc["state"] = args.state
        doc["projection"] = quantum.project_and_bound(op, quantum.bell_state(args.state))
    if args.optimize:
        opt = quantum.maximize_bound(expr, seed=args.seed)
        doc["optimized"] = {"lambda_max": opt.lambda_max, "params": opt.params,
                            "evaluations": opt.evaluations, "upper_bound": opt.upper_bound,
                            "certified": opt.certified}
        doc["lambda_max"] = max(doc["lambda_max"], opt.lambda_max)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# --- verify -----------------------------------------------------------------

def cmd_verify(args, run):
    tol = realization.DEFAULT_TOL if args.tol is None else args.tol
    real = _load(args.vectors, "builtin:", realization.load_builtin,
                 realization.parse_vectors, run)
    if args.derive:
        # a logic file, which `verify --logic` reads back
        logic = realization.derive_logic(real, tol=tol)
        print(f"logic {logic.name}")
        print(f"# {len(logic.contexts)} contexts over {len(logic.atoms)} atoms")
        for c in logic.contexts:
            print("context " + " ".join(logic.atoms[a] for a in c))
        return EXIT_OK
    if not args.logic:
        raise ValueError("verify needs --logic (or --derive)")
    logic = _load_logic(args.logic, run)
    report = realization.verify_realization(logic, real, tol=tol)
    for ci, x, y, d in report.nonorthogonal:
        print(f"context {ci}: <{x}|{y}> = {_text.exact_str(d)} is not orthogonal")
    for ci, size in report.size_warnings:
        print(f"warning: context {ci} has {size} atoms in a "
              f"{real.dimension}-dimensional space")
    for x, y in report.collinear:
        print(f"atoms {x} and {y} share a ray")
    print("PASS" if report.ok else "FAIL")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


# --- entry point ------------------------------------------------------------

# an option, and the options of the same command that it makes unused
_OVERRIDES = {"input": ("logic", "terms", "noncontextual"), "noncontextual": ("terms",),
              "preset": ("expr",), "derive": ("logic",)}


def _check_unused(args):
    """Raise ValueError if an option is given that another one given makes
    the command ignore."""
    for option, others in _OVERRIDES.items():
        unused = [f"--{o}" for o in others if getattr(args, o, None)]
        if getattr(args, option, None) and unused:
            raise ValueError(f"--{option} does not take {', '.join(unused)}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="correlpoly",
        description="Facet inequalities and quantum bounds for finite quantum logics.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("states", help="enumerate two-valued states")
    ps.add_argument("logic", help="builtin:<name> or a logic file")
    ps.add_argument("--format", choices=("table", "json", "dd"), default="table")
    ps.add_argument("--check-separating", action="store_true")
    ps.set_defaults(func=cmd_states)

    ph = sub.add_parser("hull", help="convert between V- and H-representations")
    ph.add_argument("--input", help=".ext/.ine file")
    ph.add_argument("--logic", help="builtin:<name> or a logic file")
    ph.add_argument("--terms", help="preset:<name> or a term table file")
    ph.add_argument("--noncontextual", action="store_true",
                    help="noncontextual sign vertices instead of state vertices")
    ph.add_argument("--output", help="write the result here instead of stdout")
    ph.add_argument("--reverse", action="store_true", help="H-rep to V-rep")
    ph.add_argument("--golden", help="builtin:<scenario> or a file to compare against")
    ph.set_defaults(func=cmd_hull)

    pq = sub.add_parser("quantum", help="operator spectra and quantum bounds")
    pq.add_argument("--expr", help="operator expression file")
    pq.add_argument("--preset", help="chsh | kcbs | cabelloT")
    pq.add_argument("--param", action="append", metavar="NAME=VALUE")
    pq.add_argument("--optimize", action="store_true")
    pq.add_argument("--state",
                    choices=("psi-minus", "psi-plus", "phi-minus", "phi-plus"))
    pq.add_argument("--seed", type=int, default=0,
                    help="seed of the optimizer's random starts; "
                         "0 keeps the declared defaults as the first start")
    pq.set_defaults(func=cmd_quantum)

    pv = sub.add_parser("verify", help="check or derive a vector realization")
    pv.add_argument("--logic", help="builtin:<name> or a logic file")
    pv.add_argument("--vectors", required=True, help="builtin:<name> or a vector file")
    # None stands for realization.DEFAULT_TOL, read when verify runs
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--derive", action="store_true",
                    help="derive the logic from orthogonality instead of checking")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; only --help exits 0
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    run = _Run(argv)
    try:
        _check_unused(args)
        code = args.func(args, run)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    run.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
