"""Command-line front end: ingest states, run certificates and sweeps,
export witnesses and reports.

Exit codes: 0 = separability condition satisfied (no certificate),
2 = violation certified, 1 = error, 3 = unreliable Fock truncation.  A usage
error is one `error:` line and exit 1 too; `--help` exits 0.  Exit 2 means a
certified violation for every subcommand but relation-check, where it means a
failed numerical self-check: the defect exceeds RELATION_RTOL * max(1, |lhs|,
|rhs|), which certifies nothing about entanglement.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import certificates, states
from .errors import CertificationError, ParameterOutOfRange, TruncationUnreliable
from .hermitian import Bipartition, operator_from_payload
from .spectral import pt_spectrum

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2
EXIT_TRUNCATION = 3

RELATION_RTOL = 1e-8    # relation-check's bound on |lhs - rhs|, relative
# The most grid points sweep-ghz takes, checked before the grid is allocated:
# at about 0.25 ms a point (2-vCPU VM) the largest sweep takes 2-4 s in-process
# and writes 1 MB of CSV, and a p spacing of 1e-4 is far finer than a plot shows.
MAX_STEPS = 10_000


def _tol(tol: float) -> float:
    """--tol (default VIOLATION_TOL) as given: a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterOutOfRange(f"tolerance {tol!r} is not a finite number >= 0")
    return tol


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_spec(text: str) -> dict:
    """Accept a JSON object or the compact form "family:key=val,key=val"."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    family, _, rest = text.partition(":")
    spec = {"family": family.strip()}
    if rest.strip():
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise ParameterOutOfRange(f"cannot parse spec item {item!r}")
            spec[key.strip()] = _parse_value(value.strip())
    return spec


def _read_payload(source: str) -> dict:
    """The JSON object in a matrix/spec file, an inline JSON object, or a
    compact spec."""
    if os.path.exists(source):
        with open(source) as fh:
            payload = json.load(fh)
    else:
        payload = _parse_spec(source)
    if not isinstance(payload, dict):
        raise ParameterOutOfRange(
            f"{source}: expected a JSON object, got {type(payload).__name__}")
    return payload


def _load_finite_state(source: str):
    """A finite state from a matrix payload or a state spec (see _read_payload)."""
    payload = _read_payload(source)
    if "matrix" in payload:
        return operator_from_payload(payload)
    return states.state_from_spec(payload)


def _load_cv_state(source: str, cutoff: int | None):
    """(state, spec, cutoff) at the spec's cutoff, else --cutoff, else DEFAULT_CUTOFF."""
    from . import cv  # imported by the CV subcommands only: the finite ones never read it
    payload = _read_payload(source)
    payload.setdefault("cutoff", cv.DEFAULT_CUTOFF if cutoff is None else cutoff)
    rho = cv.cv_state_from_spec(payload)
    if cutoff not in (None, rho.dims[0] - 1):
        raise ParameterOutOfRange(f"spec cutoff {rho.dims[0] - 1} differs from --cutoff {cutoff}")
    return rho, payload, rho.dims[0] - 1


def _write(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(command: str, source: str, **options) -> dict:
    return {"command": command, "input": source, **options}


def _emit(payload: dict, out) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def check(source, bipartition, tol, out):
    """Run the full SR certificate for one state and bipartition."""
    tol = _tol(tol)
    rho = _load_finite_state(source)
    bip = Bipartition.parse(bipartition, len(rho.dims))
    payload = certificates.certificate_payload(rho, bip, tol=tol)
    payload["config"] = _config("check", source, bipartition=bipartition, tol=tol)
    _emit(payload, out)
    return EXIT_VIOLATED if payload["verdict"] == "violated" else EXIT_OK


def sweep_ghz(p_from, p_to, steps, bipartition, tol, out):
    """Sweep the mixed-GHZ family and emit CSV columns
    p, lambda_minus, sr_margin, eq8_margin, witness_value."""
    tol = _tol(tol)
    if not (0.0 <= p_from < p_to <= 1.0):
        raise ParameterOutOfRange(
            f"need 0 <= p_from < p_to <= 1, got {p_from}, {p_to}"
        )
    if not 2 <= steps <= MAX_STEPS:
        raise ParameterOutOfRange(f"steps = {steps} outside 2..{MAX_STEPS}")
    bip = Bipartition.parse(bipartition, 3)
    rows = []
    for p in np.linspace(p_from, p_to, steps):
        rho = states.make_ghz_mixed(float(p))
        cert = certificates.certify(rho, bip, tol=tol)
        eq8 = certificates.ghz_inequality(*certificates.ghz_correlators(rho))
        # Laboratory-frame witness Tr{(|v2><v2|)^PT rho} = <v2|rho^PT|v2> on the
        # minimal-eigenvalue eigenvector; equals lambda_min whatever its sign.
        v2 = cert.spectrum.vector(-1)
        wval = float(np.vdot(v2, cert.rho_pt.matrix @ v2).real)
        rows.append((float(p), cert.verdict.min_eigenvalue, cert.report.margin,
                     eq8.margin, wval))
    lines = ["p,lambda_minus,sr_margin,eq8_margin,witness_value"]
    lines += [",".join(repr(x) for x in row) for row in rows]
    _write("\n".join(lines) + "\n", out)
    return EXIT_OK


def witness(source, bipartition, tol, out):
    """Export the entanglement witness built from the most negative PT eigenvector."""
    tol = _tol(tol)
    rho = _load_finite_state(source)
    bip = Bipartition.parse(bipartition, len(rho.dims))
    _, spectrum, verdict = pt_spectrum(rho, bip, tol=tol)
    entry = certificates.witness_entry(rho, bip, spectrum, verdict)
    if entry is not None:
        entry["source_eigenvalue"] = verdict.min_eigenvalue
    payload = {
        "schema": certificates.REPORT_SCHEMA,
        "is_npt": verdict.is_npt,
        "pt_eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "witness": entry,
        "config": _config("witness", source, bipartition=bipartition, tol=tol),
    }
    _emit(payload, out)
    return EXIT_VIOLATED if verdict.is_npt else EXIT_OK


def _cv_report_payload(rep: cv.CvInequalityReport) -> dict:
    """The report's fields, its verdict and the guard's tail weight; a report
    exists only past the guard, so its truncation is always reliable."""
    payload = dict(vars(rep))
    payload["verdict"] = "violated" if rep.violated else "satisfied"
    payload["truncation"] = {"tail_weight": payload.pop("tail_weight"), "reliable": True}
    return payload


def _check_orders(*orders) -> None:
    for o in orders:
        if not 1 <= o <= 4:
            raise ParameterOutOfRange(f"order {o} outside 1..4")


def cv_check(source, ineq, m, n, cutoff, tol, out):
    """Evaluate a moment inequality for a two-mode CV state spec."""
    from . import cv
    tol = _tol(tol)
    _check_orders(m, n)
    rho, spec, cutoff = _load_cv_state(source, cutoff)
    runner = cv.ineq10 if ineq == "10" else cv.ineq11
    rep = runner(rho, m, n, tol=tol)
    payload = _cv_report_payload(rep)
    payload["config"] = _config("cv-check", source, spec=spec, ineq=ineq, m=m, n=n,
                                cutoff=cutoff, tol=tol)
    _emit(payload, out)
    return EXIT_VIOLATED if rep.violated else EXIT_OK


def bs_demo(source, theta, m, n, cutoff, tol, out):
    """Pipe a single-mode state and vacuum through a beam splitter, then
    evaluate both moment inequalities on the output."""
    from . import cv
    tol = _tol(tol)
    _check_orders(m, n)
    rho_in, spec, cutoff = _load_cv_state(source, cutoff)
    two_mode = cv.with_vacuum_ancilla(rho_in)
    result = cv.beam_splitter(two_mode, theta)
    rep10 = cv.ineq10(result.state, m, n, tol=tol)
    rep11 = cv.ineq11(result.state, m, n, tol=tol)
    payload = {
        "unitarity_defect": result.unitarity_defect,
        "ineq10": _cv_report_payload(rep10),
        "ineq11": _cv_report_payload(rep11),
        "config": _config("bs-demo", source, spec=spec, theta=theta, m=m, n=n,
                          cutoff=cutoff, tol=tol),
    }
    _emit(payload, out)
    violated = rep10.violated or rep11.violated
    return EXIT_VIOLATED if violated else EXIT_OK


def relation_check(source, m, n, p, q, cutoff, out):
    """Check the partial-transpose moment identity on a two-mode state;
    exit 2 when its defect exceeds RELATION_RTOL * max(1, |lhs|, |rhs|)."""
    from . import cv
    for o in (m, n, p, q):
        if not 0 <= o <= 4:
            raise ParameterOutOfRange(f"order {o} outside 0..4")
    rho, spec, cutoff = _load_cv_state(source, cutoff)
    res = cv.pt_moment_relation_check(rho, m, n, p, q)
    payload = {
        "lhs": [res.lhs.real, res.lhs.imag],
        "rhs": [res.rhs.real, res.rhs.imag],
        "defect": res.defect,
        "config": _config("relation-check", source, spec=spec, m=m, n=n, p=p, q=q, cutoff=cutoff),
    }
    _emit(payload, out)
    bound = RELATION_RTOL * max(1.0, abs(res.lhs), abs(res.rhs))
    return EXIT_VIOLATED if res.defect > bound else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are one `error:` line and exit 1; options are never abbreviated;
    -1e-300, -.5 or -inf after an option is its value, not an unknown option."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_ERROR)


@functools.cache  # built once: building the parser takes longer than a small request
def _parser(prog):
    out, tol, orders = (_Parser(add_help=False) for _ in range(3))
    out.add_argument("--out")
    tol.add_argument("--tol", type=float, default=certificates.VIOLATION_TOL,
                     help="Margin tolerance (default %(default)g).")
    orders.add_argument("--m", type=int, default=1)
    orders.add_argument("--n", type=int, default=1)
    orders.add_argument("--cutoff", type=int)
    parser = _Parser(prog=prog)
    commands = parser.add_subparsers(required=True)

    def command(run, *parents):
        sub = commands.add_parser(run.__name__.replace("_", "-"), parents=[*parents, out],
                                  help=" ".join(run.__doc__.split()), description=run.__doc__)
        sub.set_defaults(run=run)
        return sub.add_argument

    for run in (check, witness):
        arg = command(run, tol)
        arg("source")
        arg("--bipartition", required=True, help='Subsystem split, e.g. "0,1|2".')
    arg = command(sweep_ghz, tol)
    arg("--p-from", type=float, default=0.0)
    arg("--p-to", type=float, default=1.0)
    arg("--steps", type=int, default=21)
    arg("--bipartition", default="0,1|2")
    arg = command(cv_check, orders, tol)
    arg("source")
    arg("--ineq", choices=["10", "11"], default="10")
    arg = command(bs_demo, orders, tol)
    arg("--input", dest="source", required=True,
        help='Single-mode spec, e.g. "squeezed_vacuum:r=0.5".')
    arg("--theta", type=float, default=float(np.pi / 4))
    arg = command(relation_check, orders)
    arg("source")
    arg("--p", type=int, default=1)
    arg("--q", type=int, default=0)
    return parser


def main(argv=None, prog_name=None):
    """Run the subcommand argv names (default sys.argv[1:]); exit with its code.
    A library, input or file error in it is one `error:` line and exit 1 (3 for an
    unreliable Fock truncation): a spec value of the wrong type raises TypeError,
    an infinite count (`n=inf`) OverflowError, JSON nested too deep RecursionError."""
    options = vars(_parser(prog_name or "nptcert").parse_args(argv))
    run = options.pop("run")
    try:
        code = run(**options)
    except (CertificationError, OSError, KeyError, ValueError, TypeError, OverflowError,
            RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_TRUNCATION if isinstance(exc, TruncationUnreliable) else EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
