"""Command-line front end: ingest states, run certificates and sweeps,
export witnesses and reports.

Each subcommand returns its report (a dict, or sweep-ghz's CSV text) and
whether it exits 2; main checks --tol, adds `config` to a JSON report and
writes it, json.dumps(indent=2, sort_keys=True) plus a newline, once.

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
from .hermitian import Bipartition, complex_pairs, operator_from_payload
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


def _load_finite_state(source: str, bipartition: str):
    """(state, Bipartition) from a matrix payload or a state spec (see
    _read_payload) and a bipartition string over the state's subsystems."""
    payload = _read_payload(source)
    rho = (operator_from_payload if "matrix" in payload else states.state_from_spec)(payload)
    return rho, Bipartition.parse(bipartition, len(rho.dims))


def _load_cv_state(source: str, cutoff: int | None):
    """(state, its config: the spec as read and the cutoff built at) at the
    spec's cutoff, else --cutoff, else DEFAULT_CUTOFF."""
    from . import cv  # imported by the CV subcommands only: the finite ones never read it
    payload = _read_payload(source)
    payload.setdefault("cutoff", cv.DEFAULT_CUTOFF if cutoff is None else cutoff)
    rho = cv.cv_state_from_spec(payload)
    if cutoff not in (None, rho.dims[0] - 1):
        raise ParameterOutOfRange(f"spec cutoff {rho.dims[0] - 1} differs from --cutoff {cutoff}")
    return rho, {"spec": payload, "cutoff": rho.dims[0] - 1}


def check(source, bipartition, tol):
    """Run the full SR certificate for one state and bipartition."""
    rho, bip = _load_finite_state(source, bipartition)
    payload = certificates.certificate_payload(rho, bip, tol=tol)
    return payload, payload["verdict"] == "violated"


def sweep_ghz(p_from, p_to, steps, bipartition, tol):
    """Sweep the mixed-GHZ family and emit CSV columns
    p, lambda_minus, sr_margin, eq8_margin, witness_value."""
    if not (0.0 <= p_from < p_to <= 1.0):
        raise ParameterOutOfRange(f"need 0 <= p_from < p_to <= 1, got {p_from}, {p_to}")
    if not 2 <= steps <= MAX_STEPS:
        raise ParameterOutOfRange(f"steps = {steps} outside 2..{MAX_STEPS}")
    bip = Bipartition.parse(bipartition, 3)
    lines = ["p,lambda_minus,sr_margin,eq8_margin,witness_value"]
    for p in np.linspace(p_from, p_to, steps):
        rho = states.make_ghz_mixed(float(p))
        cert = certificates.certify(rho, bip, tol=tol)
        eq8 = certificates.ghz_inequality(*certificates.ghz_correlators(rho))
        # Laboratory-frame witness Tr{(|v2><v2|)^PT rho} = <v2|rho^PT|v2> on the
        # minimal-eigenvalue eigenvector; equals lambda_min whatever its sign.
        v2 = cert.spectrum.vector(-1)
        wval = float(np.vdot(v2, cert.rho_pt.matrix @ v2).real)
        lines.append(",".join(repr(x) for x in (float(p), cert.verdict.min_eigenvalue,
                                                cert.report.margin, eq8.margin, wval)))
    return "\n".join(lines) + "\n", False


def witness(source, bipartition, tol):
    """Export the entanglement witness built from the most negative PT eigenvector."""
    rho, bip = _load_finite_state(source, bipartition)
    _, spectrum, verdict = pt_spectrum(rho, bip, tol=tol)
    entry = certificates.witness_entry(rho, bip, spectrum, verdict)
    if entry is not None:
        entry["source_eigenvalue"] = verdict.min_eigenvalue
    payload = {"schema": certificates.REPORT_SCHEMA, "is_npt": verdict.is_npt,
               "pt_eigenvalues": [float(x) for x in spectrum.eigenvalues], "witness": entry}
    return payload, verdict.is_npt


def _cv_report_payload(rep: cv.CvInequalityReport) -> dict:
    """The report's fields, its verdict and the guard's tail weight; a report
    exists only past the guard, so its truncation is always reliable."""
    payload = dict(vars(rep))
    payload["verdict"] = "violated" if rep.violated else "satisfied"
    payload["truncation"] = {"tail_weight": payload.pop("tail_weight"), "reliable": True}
    return payload


def _check_orders(*orders, lowest=1) -> None:
    for o in orders:
        if not lowest <= o <= 4:
            raise ParameterOutOfRange(f"order {o} outside {lowest}..4")


def cv_check(source, ineq, m, n, cutoff, tol):
    """Evaluate a moment inequality for a two-mode CV state spec."""
    from . import cv
    _check_orders(m, n)
    rho, config = _load_cv_state(source, cutoff)
    rep = (cv.ineq10 if ineq == "10" else cv.ineq11)(rho, m, n, tol=tol)
    return dict(_cv_report_payload(rep), config=config), rep.violated


def bs_demo(source, theta, m, n, cutoff, tol):
    """Pipe a single-mode state and vacuum through a beam splitter, then
    evaluate both moment inequalities on the output."""
    from . import cv
    _check_orders(m, n)
    rho_in, config = _load_cv_state(source, cutoff)
    result = cv.beam_splitter(cv.with_vacuum_ancilla(rho_in), theta)
    rep10 = cv.ineq10(result.state, m, n, tol=tol)
    rep11 = cv.ineq11(result.state, m, n, tol=tol)
    payload = {"unitarity_defect": result.unitarity_defect, "ineq10": _cv_report_payload(rep10),
               "ineq11": _cv_report_payload(rep11), "config": config}
    return payload, rep10.violated or rep11.violated


def relation_check(source, m, n, p, q, cutoff):
    """Check the partial-transpose moment identity on a two-mode state;
    exit 2 when its defect exceeds RELATION_RTOL * max(1, |lhs|, |rhs|)."""
    from . import cv
    _check_orders(m, n, p, q, lowest=0)
    rho, config = _load_cv_state(source, cutoff)
    res = cv.pt_moment_relation_check(rho, m, n, p, q)
    payload = {"lhs": complex_pairs(res.lhs), "rhs": complex_pairs(res.rhs),
               "defect": res.defect, "config": config}
    return payload, res.defect > RELATION_RTOL * max(1.0, abs(res.lhs), abs(res.rhs))


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
    """Run the subcommand argv names (default sys.argv[1:]), write its report to
    --out or stdout and exit 2 if it flags the request, else 0.  `config` holds
    the command, the input and every option but --out, then a CV subcommand's
    spec as read and cutoff as built.  An error is one `error:` line and exit 1
    (3 for an unreliable Fock truncation): an unreadable file is an OSError, bad
    JSON a ValueError, JSON nested too deep a RecursionError."""
    options = vars(_parser(prog_name or "nptcert").parse_args(argv))
    run, out = options.pop("run"), options.pop("out")
    try:
        if "tol" in options and not (math.isfinite(options["tol"]) and options["tol"] >= 0):
            raise ParameterOutOfRange(f"tolerance {options['tol']!r} is not a finite number >= 0")
        report, flagged = run(**options)
        if isinstance(report, dict):
            options["input"] = options.pop("source")
            report["config"] = {"command": run.__name__.replace("_", "-"), **options,
                                **report.get("config", {})}
            report = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(report)
        else:
            sys.stdout.write(report)
        code = EXIT_VIOLATED if flagged else EXIT_OK
    except (CertificationError, OSError, KeyError, ValueError, TypeError, OverflowError,
            RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_TRUNCATION if isinstance(exc, TruncationUnreliable) else EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
