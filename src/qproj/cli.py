"""Batch CLI: classify, reversibility, decompose, simple-check, gen, verify.

Input is QMatrix3 JSON ({"matrix": [[[w,x,y,z] x3] x3]}), one object or an
array of them; output mirrors the input arity and preserves order.  Every
report embeds the input matrix and the tolerance so `qproj verify` can replay
all certificates offline.

Exit codes: 0 success, 2 parse or usage error, 3 precondition failure,
4 certificate verification failure.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .classify import classification_report
from .decompose import _is_simple_data, _realify_from_data, decompose_simple, is_simple
from .errors import CertificateError, QprojError
from .generate import DYNAMICAL_TYPES, generate
from .matrix import (QMatrix3, check_certificate, conjugation_residual, det_h, inverse,
                     normalize_to_sl, product_residual, replay_gate, square_residual)
from .quaternion import DEFAULT_TOL, ClassRep
from .reversibility import psl_report
from .spectral import _assemble_jordan, jordan_form

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4

_AUTO_NORMALIZE_WINDOW = 1e-3


class _CliFailure(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _usable_tol(value: float) -> bool:
    """A tolerance must be a finite number above zero."""
    return math.isfinite(value) and value > 0


def _default_tol() -> float:
    env = os.environ.get("QPROJ_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            value = math.nan
        if _usable_tol(value):
            return value
        click.echo(f"warning: ignoring invalid QPROJ_TOL={env!r}", err=True)
    return DEFAULT_TOL


def _resolve_tol(ctx, param, value):
    """--tol callback: a usable value, or QPROJ_TOL / the default when absent."""
    if value is None:
        return _default_tol()
    if not _usable_tol(value):
        raise click.BadParameter(f"{value!r} is not a finite number above zero")
    return value


def _read_payload(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise _CliFailure(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    except json.JSONDecodeError as exc:
        raise _CliFailure(f"invalid JSON in {path}: {exc}", EXIT_PARSE) from exc


def _parse_matrices(payload):
    """Return (list of QMatrix3, was_batch)."""
    items = payload if isinstance(payload, list) else [payload]
    matrices = []
    for k, item in enumerate(items):
        try:
            matrices.append(QMatrix3.from_json_dict(item))
        except (KeyError, TypeError, ValueError) as exc:
            raise _CliFailure(f"entry {k}: not a QMatrix3 JSON object: {exc}", EXIT_PARSE) from exc
    return matrices, isinstance(payload, list)


def _ensure_unimodular(m: QMatrix3, tol: float) -> QMatrix3:
    d = det_h(m)
    if abs(d - 1.0) <= 1e3 * tol:
        return m
    if abs(d - 1.0) < _AUTO_NORMALIZE_WINDOW:
        click.echo(
            f"warning: det_h = {d:.9f}; auto-normalizing to SL(3,H)", err=True
        )
        return normalize_to_sl(m, tol)
    raise _CliFailure(
        f"det_h = {d:.6f} is too far from 1 to auto-normalize", EXIT_PRECONDITION
    )


def _emit(reports, was_batch, as_json, text_fn):
    if as_json:
        payload = reports if was_batch else reports[0]
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for rep in reports:
            click.echo(text_fn(rep))


def _run_command(path, tol, as_json, worker, text_fn):
    payload = _read_payload(path)
    matrices, was_batch = _parse_matrices(payload)
    reports = []
    for m in matrices:
        a = _ensure_unimodular(m, tol)
        rep = worker(a, tol)
        rep["input"] = a.to_json_dict()
        rep["tolerance"] = tol
        reports.append(rep)
    _emit(reports, was_batch, as_json, text_fn)


def _wrap_errors(fn):
    try:
        fn()
    except _CliFailure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.code)
    except QprojError as exc:
        click.echo(f"error: {exc.__class__.__name__}: {exc}", err=True)
        sys.exit(EXIT_PRECONDITION)


_tol_option = click.option(
    "--tol", type=float, default=None, callback=_resolve_tol,
    help="Tolerance, finite and > 0 (default 1e-9 or QPROJ_TOL).",
)
_json_flag = click.option(
    "--json/--text", "as_json", default=True, help="Output format (default JSON)."
)
_path_argument = click.argument("path", default="-")


@click.group()
@click.version_option(version=__version__, prog_name="qproj")
def main():
    """Classify, test reversibility, and decompose 3x3 quaternionic matrices."""


@main.command("classify")
@_tol_option
@_json_flag
@_path_argument
def classify_cmd(tol, as_json, path):
    """Dynamical-type classification report."""

    def worker(a, tol):
        rep = classification_report(a, tol)
        rep["kind"] = "classification"
        return rep

    def text(rep):
        extras = ""
        if rep["f"] is not None:
            extras = f"  f={rep['f']:.6g} x={rep['x']:.6g} y={rep['y']:.6g} d={rep['d']}"
        return f"{rep['major']} / {rep['minor']}{extras}"

    _wrap_errors(lambda: _run_command(path, tol, as_json, worker, text))


@main.command("reversibility")
@_tol_option
@_json_flag
@_path_argument
def reversibility_cmd(tol, as_json, path):
    """Reversibility flags and certified witnesses."""

    def worker(a, tol):
        rep = psl_report(a, tol).to_json_dict()
        rep["kind"] = "reversibility"
        return rep

    def text(rep):
        return (
            f"reversible_sl={rep['reversible_sl']} "
            f"strongly_reversible_sl={rep['strongly_reversible_sl']} "
            f"negative_reversible={rep['negative_reversible']} "
            f"reversible_psl={rep['reversible_psl']}"
        )

    _wrap_errors(lambda: _run_command(path, tol, as_json, worker, text))


@main.command("decompose")
@_tol_option
@_json_flag
@_path_argument
def decompose_cmd(tol, as_json, path):
    """Decomposition into at most four simple factors with certificates."""

    def worker(a, tol):
        rep = decompose_simple(a, tol).to_json_dict()
        rep["kind"] = "decomposition"
        return rep

    def text(rep):
        return f"{len(rep['factors'])} simple factors, residual {rep['residual']:.2e}"

    _wrap_errors(lambda: _run_command(path, tol, as_json, worker, text))


@main.command("simple-check")
@_tol_option
@_json_flag
@_path_argument
def simple_check_cmd(tol, as_json, path):
    """Simplicity test plus real-conjugate certificate when simple."""

    def worker(a, tol):
        data = jordan_form(a, tol)
        simple = _is_simple_data(data, tol)
        rep = {"kind": "simple-check", "simple": simple, "certificate": None}
        if simple:
            rep["certificate"] = _realify_from_data(a, data, tol).to_json_dict()
        return rep

    def text(rep):
        return "simple" if rep["simple"] else "not simple"

    _wrap_errors(lambda: _run_command(path, tol, as_json, worker, text))


@main.command("gen")
@click.option("--type", "type_name", required=True,
              type=click.Choice(sorted(DYNAMICAL_TYPES)), help="Canonical type to sample.")
@click.option("--seed", type=int, default=0, show_default=True)
@_json_flag
def gen_cmd(type_name, seed, as_json):
    """Emit a random conjugate of a canonical type with its ground-truth label."""

    def run():
        inst = generate(type_name, seed=seed)
        rep = inst.to_json_dict()
        rep["kind"] = "generated"
        rep["seed"] = seed
        if as_json:
            click.echo(json.dumps(rep, indent=2, sort_keys=True))
        else:
            click.echo(f"{type_name} instance (seed {seed})")

    _wrap_errors(run)


def _replay_report(rep, failures):
    kind = rep.get("kind")
    tol = float(rep.get("tolerance", DEFAULT_TOL))

    def check(residual, what):
        try:
            check_certificate(residual, what, replay_gate(tol))
        except CertificateError as exc:
            failures.append(str(exc))

    if kind == "generated":
        a = QMatrix3.from_json_dict(rep)
        verdict = classification_report(a, tol)
        if verdict["minor"] != rep["type"]:
            failures.append(f"generated label {rep['type']} reclassified as {verdict['minor']}")
        return
    if "input" not in rep:
        failures.append(f"report of kind {kind!r} carries no input matrix")
        return
    a = QMatrix3.from_json_dict(rep["input"])
    real_conjugates = []  # (what, matrix, certificate JSON)

    if kind == "classification":
        jd = rep["jordan"]
        S = QMatrix3.from_json_dict(jd["S"])
        J = _assemble_jordan([(ClassRep(b["re"], b["im"]), b["size"]) for b in jd["blocks"]])
        check(conjugation_residual(S, J, a), "jordan reconstruction")
        verdict = classification_report(a, tol)
        if (verdict["major"], verdict["minor"]) != (rep["major"], rep["minor"]):
            failures.append(
                f"classification {rep['major']}/{rep['minor']} reclassified as "
                f"{verdict['major']}/{verdict['minor']}"
            )
    elif kind == "reversibility":
        # the signs the library certifies: g^2 = -I for a skew-involution and
        # +I for an involution, s1^2 = -I, and s1 s2 = A (not -A)
        sign = -1.0 if rep["reverser_kind"] == "skew-involution" else 1.0
        if rep["reverser"] is not None:
            g = QMatrix3.from_json_dict(rep["reverser"])
            target = inverse(a) if rep["reversible_sl"] else -inverse(a)
            check(conjugation_residual(g, a, target), "reverser conjugation")
            check(square_residual(g, sign), "reverser square")
        if rep["psl_involution_pair"] is not None:
            s1, s2 = (QMatrix3.from_json_dict(m) for m in rep["psl_involution_pair"])
            check(product_residual([s1, s2], a), "pair product")
            check(square_residual(s1, -1.0), "pair square 1")
            check(square_residual(s2, sign), "pair square 2")
    elif kind == "decomposition":
        factors = [QMatrix3.from_json_dict(f) for f in rep["factors"]]
        if len(factors) > 4:
            failures.append(f"{len(factors)} factors exceed the bound of four")
        check(product_residual(factors, a), "factor product")
        real_conjugates = [
            (f"factor {k} real conjugate", f, cert)
            for k, (f, cert) in enumerate(zip(factors, rep["certificates"]))
        ]
    elif kind == "simple-check":
        simple = is_simple(a, tol)
        if simple != rep["simple"]:
            failures.append(f"simple-check flag {rep['simple']} recomputed as {simple}")
        if rep["certificate"] is not None:
            real_conjugates = [("real conjugate", a, rep["certificate"])]
    else:
        failures.append(f"unknown report kind {kind!r}")

    for what, m, cert in real_conjugates:
        T = QMatrix3.from_json_dict(cert["T"])
        B = QMatrix3.from_real(np.array(cert["B"], dtype=float))
        check(conjugation_residual(T, B, m), what)


@main.command("verify")
@_path_argument
def verify_cmd(path):
    """Re-check every certificate in a report file; exit 0 iff all pass."""

    def run():
        payload = _read_payload(path)
        reports = payload if isinstance(payload, list) else [payload]
        failures = []
        for k, rep in enumerate(reports):
            if not isinstance(rep, dict):
                raise _CliFailure(f"entry {k} is not a report object", EXIT_PARSE)
            before = len(failures)
            try:
                _replay_report(rep, failures)
            except (KeyError, TypeError, ValueError) as exc:
                raise _CliFailure(f"entry {k}: malformed report: {exc}", EXIT_PARSE) from exc
            status = "ok" if len(failures) == before else "FAIL"
            click.echo(f"report {k}: {status}", err=True)
        if failures:
            for f in failures:
                click.echo(f"verification failure: {f}", err=True)
            sys.exit(EXIT_VERIFY)
        click.echo("all certificates verified")

    _wrap_errors(run)


if __name__ == "__main__":
    main()
