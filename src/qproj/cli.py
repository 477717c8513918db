"""Batch CLI: classify, reversibility, decompose, simple-check, gen, verify.

Input is QMatrix3 JSON ({"matrix": [[[w,x,y,z] x3] x3]}), one object or an
array of them; output mirrors the input arity and preserves order.  Every
report embeds the input matrix and the tolerance so `qproj verify` can replay
all certificates offline.

Output contract: every JSON document the CLI prints is one line,
`json.dumps(document, sort_keys=True)` (default separators, keys sorted,
floats as Python's shortest round-trip repr), so stdout equals
`json.dumps(json.loads(stdout), sort_keys=True) + "\n"`.  `_emit` is the only
place that decides this.  The matrices of a batch's reports are encoded per
kind by one `matrix._json_matrices` call: the inputs, the Jordan similarities
S of `classify`, the factors and conjugators of `decompose` and
`simple-check`, the witnesses of `reversibility`.  `--text` prints one
human-readable line per report instead; `python -m json.tool` pretty-prints a
JSON report.

`qproj verify` judges every certificate by replay_gate of its own `--tol`.
A report's `tolerance` only replays the verdicts made at it (the dynamical
type, the simplicity flag).  It replays a whole payload in one stacked pass
(_Replay) with the output of a replay one report at a time, then prints
each certificate kind's worst residual next to its gate.

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
from .classify import _classifications_from_data, _classify_from_jordan
from .decompose import (_decomposition_dicts, _decompositions_from_data, _is_simple_data,
                        _led_by_identities)
from .errors import CertificateError, QprojError
from .generate import DYNAMICAL_TYPES, generate
from .matrix import (QMatrix3, _adjoint, _blocks36, _conjugation_residuals, _dets_h,
                     _json_entries, _json_matrices, _product_residuals, _square_residuals, _stack,
                     _vec36, check_certificate, is_unimodular, normalize_to_sl, replay_gate,
                     require_unimodular, unimodular_gate)
from .quaternion import DEFAULT_TOL, ClassRep
from .reversibility import _psls_from_data, _reversibility_dicts
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


def _unimodular_input(m: QMatrix3, d: float, tol: float):
    """(matrix to analyse, warning or None), or (None, error), given d = det_h(m);
    prints nothing."""
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


def _jordan_data(matrices, tol):
    """Yield the JordanData of each matrix in turn, or the QprojError jordan_form raises.

    One _generic_jordan call covers the whole stack, on the first request;
    jordan_form serves each member it leaves out when that member is
    reached, and only then.  Either way a member gets the data jordan_form
    alone gives it, provided a member whose stacked eig passes _one_candidate
    and whose Schur diagonal fails it misses the stage's residual bound.
    """
    stage = _generic_jordan(_adjoint(*_stack(matrices)), tol) if matrices else []
    for a, data in zip(matrices, stage):
        if data is None:
            try:
                data = jordan_form(a, tol)
            except QprojError as exc:
                data = exc
        yield data


def _run_command(path, tol, as_json, worker, text_fn):
    """Run worker(inputs, jordan_data, tol) on the batch, report in input order.

    The Jordan data comes from _jordan_data over the inputs up to the first
    one that fails, asked for in order and no further than the first input
    that raises.  The worker returns one report or QprojError per
    input, in order, and may stop after the first error.  All of this runs
    silently; then the inputs are replayed in order, each printing its
    warning and raising its error, so the first error ends the command just
    as if the inputs had come one at a time.
    """
    payload = _read_payload(path)
    matrices, was_batch = _parse_matrices(payload)
    inputs = [_unimodular_input(m, d, tol)
              for m, d in zip(matrices, _dets_h(*_stack(matrices)).tolist())]
    usable = [a for a, _ in itertools.takewhile(lambda item: item[0] is not None, inputs)]
    jordan = _jordan_data(usable, tol)
    datas, failure = [], None
    for a, note in inputs:
        if a is None:
            failure = _CliFailure(note, EXIT_PRECONDITION)
            break
        try:
            if note is not None:
                require_unimodular(a, tol)  # the normalized matrix, as the library checks it
            data = next(jordan)
            if isinstance(data, QprojError):
                raise data
            datas.append(data)
        except QprojError as exc:
            failure = exc
            break
    analysed = [a for a, _ in inputs[:len(datas)]]
    results = worker(analysed, datas, tol) + [failure]
    encoded = _json_matrices(*_stack(analysed))
    reports = []
    for (a, note), rep, encoded_input in zip(inputs, results, encoded + [None]):
        if a is not None and note is not None:
            click.echo(note, err=True)
        if isinstance(rep, Exception):
            raise rep
        rep["input"] = encoded_input
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

    def worker(inputs, datas, tol):
        return [rep if isinstance(rep, QprojError) else {**rep, "kind": "classification"}
                for rep in _classifications_from_data(inputs, datas, tol)]

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

    def worker(inputs, datas, tol):
        return [rep if isinstance(rep, QprojError) else {**rep, "kind": "reversibility"}
                for rep in _reversibility_dicts(_psls_from_data(inputs, datas, tol))]

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
        return [rep if isinstance(rep, QprojError) else {**rep, "kind": "decomposition"}
                for rep in _decomposition_dicts(_decompositions_from_data(inputs, datas, tol))]

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
        decs = iter(_decomposition_dicts(_decompositions_from_data(
            list(itertools.compress(inputs, simple)), list(itertools.compress(datas, simple)), tol)))
        results = []
        for flag in simple:
            dec = next(decs) if flag else None
            if isinstance(dec, QprojError):
                results.append(dec)
                continue
            cert = dec["certificates"][0] if flag else None
            results.append({"kind": "simple-check", "simple": flag, "certificate": cert})
        return results

    def text(rep):
        return "simple" if rep["simple"] else "not simple"

    _wrap_errors(lambda: _run_command(path, tol, as_json, worker, text))


@main.command("gen")
@click.option("--type", "type_name", required=True,
              type=click.Choice(sorted(DYNAMICAL_TYPES)), help="Canonical type to sample.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
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


# what verify counts as a malformed report (exit 2) when reading or replaying it
_MALFORMED = (KeyError, TypeError, ValueError, IndexError)

# the certificate kinds verify replays, in the order of its worst-residual lines
_CERTIFICATE_KINDS = ("jordan reconstruction", "real conjugate", "factor product",
                      "reverser conjugation", "reverser square", "pair product",
                      "pair square 1")


class _Replay:
    """Every certificate and verdict of a verify payload, replayed in one stacked pass.

    add() reads one report: each matrix its checks use becomes a row of one
    pool of coordinates, each check a row of its relation (conjugation,
    product, square), and the report a list of steps.  A reverser g is
    checked as the product A g A against t g, a pool row of its own, so no
    check inverts A.  compute() then finds every residual of the payload in
    one stacked call per relation, and every verdict's Jordan data through
    _jordan_data, one per report tolerance.  Run in order, the steps of a
    report append its failures and raise its error at the point a replay of
    that report alone would: a parse error after the checks before it, the
    QprojError of a verdict before the checks after it.  Certificates are
    judged by replay_gate(tol), verify's own tolerance; a report's
    `tolerance` only rebuilds its verdicts.
    """

    def __init__(self, tol):
        self.tol = tol
        self.gate = replay_gate(tol)
        self.pool = []  # the 36 coordinates (_vec36) of every matrix the checks use
        # rows per relation, (failure label, pool rows ...); residuals after compute()
        self.rows = {"conjugation": [], "product": [], "square": []}
        self.residuals = {relation: [] for relation in self.rows}
        self.verdicts = {}  # report tolerance -> pool rows of the inputs of its verdicts
        self.jordan = {}  # report tolerance -> (unimodular, datas so far, pending datas)

    # -- reading ---------------------------------------------------------

    def add(self, rep, steps):
        """Append the steps of one report to steps.

        Raises what reading the report raises, with the steps of the checks
        before that point already appended.
        """
        kind = rep.get("kind")
        report_tol = float(rep.get("tolerance", self.tol))
        if not _usable_tol(report_tol):
            raise ValueError(f"tolerance {report_tol!r} is not a finite number above zero")

        if kind == "generated":
            jordan = self._verdict(self._matrix(rep), report_tol)

            def relabelled(failures):
                minor = _classify_from_jordan(jordan(), report_tol).to_json_dict()["minor"]
                if minor != rep["type"]:
                    failures.append(f"generated label {rep['type']} reclassified as {minor}")

            steps.append(relabelled)
            return
        if "input" not in rep:
            steps.append(lambda failures: failures.append(
                f"report of kind {kind!r} carries no input matrix"))
            return
        a = self._matrix(rep["input"])
        real_conjugates = []  # (what, pool row of the matrix, certificate JSON)

        if kind == "classification":
            jd = rep["jordan"]
            S = self._matrix(jd["S"])
            blocks = [(ClassRep(b["re"], b["im"]), b["size"]) for b in jd["blocks"]]
            J = self._matrix(_assemble_jordan(blocks))
            steps.append(self._checked("conjugation", "jordan reconstruction", S, J, a))
            jordan = self._verdict(a, report_tol)

            def reclassified(failures):
                verdict = _classify_from_jordan(jordan(), report_tol).to_json_dict()
                if (verdict["major"], verdict["minor"]) != (rep["major"], rep["minor"]):
                    failures.append(
                        f"classification {rep['major']}/{rep['minor']} reclassified as "
                        f"{verdict['major']}/{verdict['minor']}"
                    )

            steps.append(reclassified)
        elif kind == "reversibility":
            # a reverser g comes with s1 of its pair (s1, g); the signs the library
            # certifies: A g A = t g (g A g^-1 = t A^-1) with t = 1 when A is
            # reversible in SL(3,H) and -1 otherwise, g^2 = -I for a
            # skew-involution and +I for an involution, s1^2 = -I, and s1 g = A
            # (not -A)
            if (rep["reverser"] is None) != (rep["pair_s1"] is None):
                raise ValueError("reverser and pair_s1 must be both present or both null")
            if rep["reverser"] is not None:
                g, s1 = self._matrix(rep["reverser"]), self._matrix(rep["pair_s1"])
                sign = -1.0 if rep["reverser_kind"] == "skew-involution" else 1.0
                tg = self._scaled(g, 1.0 if rep["reversible_sl"] else -1.0)
                steps.extend([self._checked("product", "reverser conjugation", [a, g, a], tg),
                              self._checked("square", "reverser square", g, sign),
                              self._checked("product", "pair product", [s1, g], a),
                              self._checked("square", "pair square 1", s1, -1.0)])
        elif kind == "decomposition":
            factors = [self._matrix(f) for f in rep["factors"]]
            if len(factors) > 4:
                steps.append(lambda failures: failures.append(
                    f"{len(factors)} factors exceed the bound of four"))
            steps.append(self._checked("product", "factor product", factors, a))
            real_conjugates = [
                (f"factor {k} real conjugate", f, cert)
                for k, (f, cert) in enumerate(zip(factors, rep["certificates"]))
            ]
        elif kind == "simple-check":
            jordan = self._verdict(a, report_tol)

            def recomputed(failures):
                simple = _is_simple_data(jordan(), report_tol)
                if simple != rep["simple"]:
                    failures.append(f"simple-check flag {rep['simple']} recomputed as {simple}")

            steps.append(recomputed)
            if rep["certificate"] is not None:
                real_conjugates = [("real conjugate", a, rep["certificate"])]
        else:
            steps.append(lambda failures: failures.append(f"unknown report kind {kind!r}"))

        for what, m, cert in real_conjugates:
            T = self._matrix(cert["T"])
            B = self._matrix(QMatrix3.from_real(np.array(cert["B"], dtype=float)))
            steps.append(self._checked("conjugation", what, T, B, m))

    def _matrix(self, m):
        """The pool row of m, a QMatrix3 or QMatrix3 JSON (checked as from_json_dict does)."""
        self.pool.append(_vec36(m) if isinstance(m, QMatrix3) else _json_entries(m).ravel())
        return len(self.pool) - 1

    def _checked(self, relation, what, *rows):
        """The step gating the residual of a new row (what, *rows) of relation."""
        row = len(self.rows[relation])
        self.rows[relation].append((what, *rows))

        def step(failures):
            try:
                check_certificate(self.residuals[relation][row], what, self.gate)
            except CertificateError as exc:
                failures.append(str(exc))

        return step

    def _scaled(self, row, t):
        """The pool row of t times the matrix of pool row row, t = +-1."""
        self.pool.append(t * self.pool[row])
        return len(self.pool) - 1

    def _verdict(self, a, report_tol):
        """A function returning the Jordan data of pool row a at report_tol, or
        raising the QprojError that require_unimodular or jordan_form raises."""
        members = self.verdicts.setdefault(report_tol, [])
        row = len(members)
        members.append(a)
        return lambda: self._jordan_of(report_tol, row)

    def _jordan_of(self, report_tol, row):
        unimodular, datas, pending = self.jordan[report_tol]
        if not unimodular[row]:
            require_unimodular(self.matrix(self.verdicts[report_tol][row]), report_tol)
        while len(datas) <= row:
            datas.append(next(pending))
        data = datas[row]
        if isinstance(data, QprojError):
            raise data
        return data

    # -- computing -------------------------------------------------------

    def matrix(self, row) -> QMatrix3:
        """The QMatrix3 of a pool row, once compute() has run."""
        return QMatrix3(self.pa[row], self.pb[row])

    def stacked(self, rows):
        """The complex pairs of pool rows as two (N, 3, 3) stacks."""
        return self.pa.take(rows, axis=0), self.pb.take(rows, axis=0)

    def compute(self):
        """Fill in every residual and the verdict sources."""
        if not self.pool:
            return
        self.pa, self.pb = _blocks36(np.array(self.pool).reshape(-1, 36))

        if self.rows["conjugation"]:
            _, t, b, m = zip(*self.rows["conjugation"])
            self.residuals["conjugation"] = _conjugation_residuals(
                *self.stacked(t), *self.stacked(b), *self.stacked(m)).tolist()
        if self.rows["product"]:
            _, factors, m = zip(*self.rows["product"])
            counts = [len(fs) for fs in factors]
            self.residuals["product"] = _product_residuals(
                *_led_by_identities(*self.stacked([f for fs in factors for f in fs]), counts,
                                    np.repeat(np.arange(len(counts)), counts)),
                *self.stacked(m)).tolist()
        if self.rows["square"]:
            _, g, signs = zip(*self.rows["square"])
            self.residuals["square"] = _square_residuals(*self.stacked(g), np.array(signs)).tolist()

        for report_tol, rows in self.verdicts.items():
            dets = _dets_h(*self.stacked(rows))
            # a member that fails require_unimodular ends the walk before its
            # Jordan data is asked for
            self.jordan[report_tol] = (
                (np.abs(dets - 1.0) <= unimodular_gate(report_tol)).tolist(), [],
                _jordan_data([self.matrix(a) for a in rows], report_tol))

    def worst(self):
        """(kind, largest residual) of each certificate kind of the payload; the
        largest is NaN when any residual of the kind is."""
        found = {}
        for relation, rows in self.rows.items():
            for (what, *_), residual in zip(rows, self.residuals[relation]):
                kind = "real conjugate" if what.endswith("real conjugate") else what
                found.setdefault(kind, []).append(residual)
        return [(kind, math.nan if any(map(math.isnan, found[kind])) else max(found[kind]))
                for kind in _CERTIFICATE_KINDS if kind in found]


def _raising(exc):
    """A step that raises exc."""

    def step(failures):
        raise exc

    return step


def _verify(reports, tol):
    """Replay the reports in one stacked pass, then report on each in order."""
    replay = _Replay(tol)
    plans, stop = [], None
    for k, rep in enumerate(reports):
        if not isinstance(rep, dict):
            stop = _CliFailure(f"entry {k} is not a report object", EXIT_PARSE)
            break
        steps = []
        plans.append(steps)
        try:
            replay.add(rep, steps)
        except _MALFORMED as exc:
            steps.append(_raising(exc))  # in the walk, after the steps before it
            break
    replay.compute()

    failures = []
    for k, steps in enumerate(plans):
        before = len(failures)
        try:
            for step in steps:
                step(failures)
        except _MALFORMED as exc:
            raise _CliFailure(f"entry {k}: malformed report: {exc}", EXIT_PARSE) from exc
        click.echo(f"report {k}: {'ok' if len(failures) == before else 'FAIL'}", err=True)
    if stop is not None:
        raise stop
    for kind, residual in replay.worst():
        click.echo(f"worst {kind} residual {residual:.3e} (gate {replay.gate:.1e})", err=True)
    if failures:
        for f in failures:
            click.echo(f"verification failure: {f}", err=True)
        sys.exit(EXIT_VERIFY)
    click.echo("all certificates verified")


@main.command("verify")
@_tol_option
@_path_argument
def verify_cmd(tol, path):
    """Re-check every certificate in a report file; exit 0 iff all pass."""

    def run():
        payload = _read_payload(path)
        _verify(payload if isinstance(payload, list) else [payload], tol)

    _wrap_errors(run)


if __name__ == "__main__":
    main()
