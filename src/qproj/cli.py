"""Batch CLI: classify, reversibility, decompose, simple-check, gen, verify.

Input is QMatrix3 JSON ({"matrix": [[[w,x,y,z] x3] x3]}), one object or an
array of them; output mirrors the input arity and preserves order.  Every
report embeds the input matrix and the tolerance so `qproj verify` can replay
all certificates offline.

Output contract: every JSON document the CLI prints is one line,
`json.dumps(document, sort_keys=True)` (default separators, keys sorted,
floats as Python's shortest round-trip repr), so stdout equals
`json.dumps(json.loads(stdout), sort_keys=True) + "\n"`.  `_emit` is the only
place that decides this.  `--text` prints one human-readable line per report
instead; `python -m json.tool` pretty-prints a JSON report.

`qproj verify` judges every certificate by replay_gate of its own `--tol`.
A report's `tolerance` only replays the verdicts made at it (the dynamical
type, the simplicity flag).

Exit codes: 0 success, 2 parse or usage error, 3 precondition failure,
4 certificate verification failure.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .classify import _classification_from_data, dynamical_type
from .decompose import _decompositions_from_data, _is_simple_data, is_simple
from .errors import CertificateError, QprojError
from .generate import DYNAMICAL_TYPES, generate
from .matrix import (QMatrix3, check_certificate, conjugation_residual, det_h, inverse,
                     is_unimodular, normalize_to_sl, product_residual, replay_gate,
                     require_unimodular, square_residual)
from .quaternion import DEFAULT_TOL, ClassRep
from .reversibility import _psl_from_data
from .spectral import _assemble_jordan, _generic_jordan, jordan_form

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


def _unimodular_input(m: QMatrix3, tol: float):
    """(matrix to analyse, warning or None), or (None, error); prints nothing."""
    d = det_h(m)
    if is_unimodular(d, tol):
        return m, None
    if abs(d - 1.0) < _AUTO_NORMALIZE_WINDOW:
        return normalize_to_sl(m), f"warning: det_h = {d:.9f}; auto-normalizing to SL(3,H)"
    return None, f"det_h = {d:.6f} is too far from 1 to auto-normalize"


def _emit(reports, was_batch, as_json, text_fn):
    """Print the reports: the one place that decides the output format."""
    if as_json:
        payload = reports if was_batch else reports[0]
        # compact: pretty-printing would drop json from its C encoder to Python
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        for rep in reports:
            click.echo(text_fn(rep))


def _run_command(path, tol, as_json, worker, text_fn):
    """Run worker(inputs, jordan_data, tol) on the batch, report in input order.

    The Jordan data of the whole batch comes from one _generic_jordan call
    on the inputs up to the first one that fails; jordan_form serves each
    input it leaves out.  The worker returns one report or QprojError per
    input, in order, and may stop after the first error.  All of this runs
    silently; then the inputs are replayed in order, each printing its
    warning and raising its error, so the first error ends the command just
    as if the inputs had come one at a time.
    """
    payload = _read_payload(path)
    matrices, was_batch = _parse_matrices(payload)
    inputs = [_unimodular_input(m, tol) for m in matrices]
    usable = [a for a, _ in itertools.takewhile(lambda item: item[0] is not None, inputs)]
    batch = _generic_jordan(np.stack([a.adjoint() for a in usable]), tol) if usable else []
    datas, failure = [], None
    for k, (a, note) in enumerate(inputs):
        if a is None:
            failure = _CliFailure(note, EXIT_PRECONDITION)
            break
        try:
            if note is not None:
                require_unimodular(a, tol)  # the normalized matrix, as the library checks it
            datas.append(batch[k] if batch[k] is not None else jordan_form(a, tol))
        except QprojError as exc:
            failure = exc
            break
    results = worker([a for a, _ in inputs[:len(datas)]], datas, tol) + [failure]
    reports = []
    for (a, note), rep in zip(inputs, results):
        if a is not None and note is not None:
            click.echo(note, err=True)
        if isinstance(rep, Exception):
            raise rep
        rep["input"] = a.to_json_dict()
        rep["tolerance"] = tol
        reports.append(rep)
    _emit(reports, was_batch, as_json, text_fn)


def _each(report):
    """A batch worker running report(a, jordan_data, tol) per input, up to the first error."""

    def worker(inputs, datas, tol):
        results = []
        for a, data in zip(inputs, datas):
            try:
                results.append(report(a, data, tol))
            except QprojError as exc:
                results.append(exc)
                break
        return results

    return worker


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

    @_each
    def worker(a, data, tol):
        rep = _classification_from_data(a, data, tol)
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

    @_each
    def worker(a, data, tol):
        rep = _psl_from_data(a, data, tol).to_json_dict()
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

    def worker(inputs, datas, tol):
        return [dec if isinstance(dec, QprojError)
                else {**dec.to_json_dict(), "kind": "decomposition"}
                for dec in _decompositions_from_data(inputs, datas, tol)]

    def text(rep):
        return f"{len(rep['factors'])} simple factors, residual {rep['residual']:.2e}"

    _wrap_errors(lambda: _run_command(path, tol, as_json, worker, text))


@main.command("simple-check")
@_tol_option
@_json_flag
@_path_argument
def simple_check_cmd(tol, as_json, path):
    """Simplicity test plus real-conjugate certificate when simple."""

    def worker(inputs, datas, tol):
        simple = [_is_simple_data(data, tol) for data in datas]
        # a simple input is its own one-factor decomposition, certified by realify
        decs = iter(_decompositions_from_data(list(itertools.compress(inputs, simple)),
                                              list(itertools.compress(datas, simple)), tol))
        results = []
        for flag in simple:
            dec = next(decs) if flag else None
            if isinstance(dec, QprojError):
                results.append(dec)
                continue
            cert = dec.certificates[0].to_json_dict() if flag else None
            results.append({"kind": "simple-check", "simple": flag, "certificate": cert})
        return results

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
        _emit([rep], False, as_json, lambda _: f"{type_name} instance (seed {seed})")

    _wrap_errors(run)


def _replay_report(rep, failures, tol):
    """Replay one report's certificates against replay_gate(tol), verify's own
    tolerance; the report's `tolerance` only rebuilds its verdicts."""
    kind = rep.get("kind")
    gate = replay_gate(tol)
    report_tol = float(rep.get("tolerance", tol))
    if not _usable_tol(report_tol):
        raise ValueError(f"tolerance {report_tol!r} is not a finite number above zero")

    def check(residual, what):
        try:
            check_certificate(residual, what, gate)
        except CertificateError as exc:
            failures.append(str(exc))

    if kind == "generated":
        a = QMatrix3.from_json_dict(rep)
        verdict = dynamical_type(a, report_tol).to_json_dict()
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
        verdict = dynamical_type(a, report_tol).to_json_dict()
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
        simple = is_simple(a, report_tol)
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
@_tol_option
@_path_argument
def verify_cmd(tol, path):
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
                _replay_report(rep, failures, tol)
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
