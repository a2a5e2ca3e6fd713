"""Command-line surface.

Every verb reads the poset text format on stdin unless ``--poset FILE`` is
given.  ``realize`` emits a pipe-composable bundle (the poset text followed
by the realizer JSON) so that ``gen | realize | verify`` works; ``verify``
also accepts a plain poset on stdin with ``--realizer FILE``.

Exit codes: 0 success/verified, 1 property violated, 2 usage or input error.
The verbs raise spdim errors, and ``_Main.invoke`` is the one place that maps
them to exit codes.
"""

import json
import os
import re
import sys
from contextlib import nullcontext

import click

from . import exactdim, generators, poset as posetio, stdecomp
from .errors import (
    BadParameter,
    CycleError,
    Exceeded,
    NotTreewidth2,
    ParseError,
    ReversibilityViolation,
    SpdimError,
    TooLarge,
    UnknownElement,
)
from .graphs import dumps_dot
from .realizer import (ALL_CLASSES, SignatureRows, decompose_poset, dumps_realizer, loads_realizer,
                       metamorphic_check, realize_tw2)
from .spembed import embed_into_sp

INPUT_ERRORS = (ParseError, CycleError, UnknownElement, BadParameter, NotTreewidth2, TooLarge)
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where ``str.splitlines`` breaks
_LINE_BREAK = re.compile("[%s]" % _LINE_BREAKS)
_JSON_OPEN = re.compile(r"[\[{]")
_RELATION = re.compile(r"\S+\s+<\s+\S+")  # three tokens, '<' in the middle, as ``poset.loads`` reads them


def _echo(message, err=False, nl=True):
    """Write the text to the stream ``click.echo`` would pick, then flush.  Not ``click.echo``
    itself: it strips ANSI escapes, which element names may hold, from a stream that is not a
    terminal, and its own stream choice caches the stream, so in-process callers (``CliRunner``)
    would keep every call's output."""
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    stream.write(message + "\n" if nl else message)
    stream.flush()


def _witness_lines(exc):
    "The witness cycle and the signature of a ``ReversibilityViolation``, as JSON lines."
    signature = None if exc.signature is None else exc.signature.to_json()
    return ["witness: %s" % json.dumps([list(pair) for pair in exc.cycle]),
            "signature: %s" % json.dumps(signature)]


def _read_text(path):
    "The text of the file at ``path``, or of stdin if None: UTF-8, with other bytes kept as surrogate escapes."
    if path is not None:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return fh.read()
    return sys.stdin.buffer.read().decode("utf-8", "surrogateescape")


def _read_poset(poset_file):
    return posetio.loads(_read_text(poset_file))


def _split_bundle(text):
    """Split a poset-text + realizer-JSON stream at the first JSON line: the first line that,
    stripped, starts with '[' or '{', holds no ' < ' and is not a relation line (``_RELATION``)."""
    first = min((k for k in map(text.find, "[{") if k >= 0), default=len(text))  # str.find outruns the regex
    for bracket in _JSON_OPEN.finditer(text, first):
        at = start = bracket.start()
        while start and text[start - 1] not in _LINE_BREAKS and text[start - 1].isspace():
            start -= 1
        end = _LINE_BREAK.search(text, at)
        line = text[at:end and end.start()].rstrip()
        if (not start or text[start - 1] in _LINE_BREAKS) and " < " not in line and not _RELATION.fullmatch(line):
            return text[:start], text[start:]
    return text, None


poset_option = click.option("--poset", "-f", "poset_file", type=click.Path(exists=True, dir_okay=False),
                            default=None, help="Read the poset from FILE instead of stdin.")


class _Main(click.Group):
    def invoke(self, ctx):
        """Run the verb: the one place a spdim error becomes an exit code.  An input error
        exits 2; a dimension above ``--max-d``, or a class that is not reversible (with its
        witness), exits 1.  Any other error is a bug and keeps its traceback."""
        try:
            return super().invoke(ctx)
        except INPUT_ERRORS as exc:
            _echo("error: %s" % exc, err=True)
            sys.exit(2)
        except Exceeded as exc:
            _echo(str(exc), err=True)
            sys.exit(1)
        except ReversibilityViolation as exc:
            _echo("\n".join(["error: %s" % exc] + _witness_lines(exc)), err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    "Realizers, exact dimension and decompositions for treewidth-2 posets."


@main.command()
@click.option("--family", required=True,
              type=click.Choice(sorted(generators.FAMILIES)))
@click.option("--n", "n", required=True, type=int)
@click.option("--seed", type=int, default=0, show_default=True)
def gen(family, n, seed):
    "Generate a poset and write it in the poset text format."
    _echo(posetio.dumps(generators.generate(family, n, seed)), nl=False)


@main.command()
@poset_option
@click.option("--max-d", type=int, default=12, show_default=True)
@click.option("--cap", type=int, default=60, show_default=True,
              help="Refuse instances with more incomparable ordered pairs.")
def dim(poset_file, max_d, cap):
    "Print the exact dimension (brute-force oracle)."
    _echo(str(exactdim.dimension_exact(_read_poset(poset_file), max_d=max_d, cap=cap).dimension))


@main.command()
@poset_option
def realize(poset_file):
    "Emit the poset followed by its realizer JSON (at most 12 extensions)."
    p = _read_poset(poset_file)
    r = realize_tw2(p)
    _echo(posetio.dumps(p), nl=False)
    _echo(dumps_realizer(r), nl=False)


@main.command()
@poset_option
@click.option("--realizer", "realizer_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Read the realizer JSON from FILE (stdin then carries the poset only).")
def verify(poset_file, realizer_file):
    "Check that the given extensions realize the poset; exit 1 if not."
    head = ""  # the input before the realizer JSON
    if realizer_file is not None:
        p, tail = _read_poset(poset_file), _read_text(realizer_file)
    else:
        head, tail = _split_bundle(_read_text(poset_file))
        if tail is None:
            raise ParseError("no realizer JSON found on stdin (use --realizer)", 1)
        p = posetio.loads(head)
    try:
        r = loads_realizer(tail)
    except ParseError as exc:  # a schema error: name the line the JSON starts on
        raise ParseError(exc.message, len((head + "^").splitlines())) from None
    except json.JSONDecodeError as exc:  # a syntax error: name its line and column as str.splitlines breaks lines
        lines = (head + exc.doc[:exc.pos] + "^").splitlines()  # "^" stands for the character at fault
        raise ParseError("%s (column %d)" % (exc.msg, len(lines[-1])), len(lines)) from None
    problems = p.realizer_violations(r.orders())
    if len(r) > len(ALL_CLASSES):
        problems.append("realizer uses %d extensions (more than 12)" % len(r))
    if problems:
        for line in problems:
            _echo("violation: %s" % line, err=True)
        sys.exit(1)
    _echo("verified: %d extension(s), %d incomparable pairs" % (len(r), p.incomparable_count()))


@main.command()
@poset_option
@click.option("--json", "as_json", is_flag=True, default=False,
              help="Emit the decomposition as JSON (default).")
@click.option("--dot", "as_dot", is_flag=True, default=False,
              help="Emit the host graph as DOT with fill edges dashed.")
def decompose(poset_file, as_json, as_dot):
    "Embed the cover graph and print the s-t tree-decomposition."
    if as_json and as_dot:
        raise BadParameter("--json and --dot exclude each other")
    p = _read_poset(poset_file)
    if as_dot:
        embedding = embed_into_sp(p.cover_graph())
        _echo(dumps_dot(embedding.host, embedding.added_edges), nl=False)
    else:
        _echo(stdecomp.dumps_decomposition(decompose_poset(p)), nl=False)


def _read_signature_rows(poset_file):
    "The signature class rows of the input poset; ``NotTreewidth2`` if its cover graph has treewidth above 2."
    p = _read_poset(poset_file)
    return SignatureRows(p, decompose_poset(p))


@main.command()
@poset_option
def classify(poset_file):
    "Print the signature census table."
    census = _read_signature_rows(poset_file).census()
    for cls, count in zip(ALL_CLASSES, census):
        _echo("%-28s %d" % (cls, count))
    _echo("%-28s %d" % ("total", sum(census)))


@main.command("check-claims")
@poset_option
def check_claims(poset_file):
    "Re-classify under dual/reversed/swapped transforms and report violations."
    rows = _read_signature_rows(poset_file)
    report = metamorphic_check(rows)
    if report:
        for violation in report:
            _echo("violation: %s" % violation, err=True)
        sys.exit(1)
    _echo("no violations (%d pairs checked)" % rows.poset.incomparable_count())


@main.command()
@click.option("--family", default="random_tw2", type=click.Choice(sorted(generators.FAMILIES)),
              show_default=True)
@click.option("--n", "n", required=True, type=int)
@click.option("--count", required=True, type=int)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--oracle-cap", type=int, default=0, show_default=True,
              help="Also run the exact oracle when |Inc| fits under this cap.")
def batch(family, n, count, seed, jobs, oracle_cap):
    "Generate COUNT instances, realize and verify each, print a summary."
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise BadParameter("--jobs must be between 1 and %d (the CPU count)" % cpus)
    if count < 1:
        raise BadParameter("--count must be at least 1")
    if oracle_cap < 0:
        raise BadParameter("--oracle-cap must be at least 0")
    generators.check_request(family, n)
    import multiprocessing  # here, not at the top: the other verbs would pay for its import

    tasks = ((family, n, seed + k, oracle_cap) for k in range(count))  # made as they are run
    failures, max_ext, max_dim = [], 0, 0  # no other result is kept
    with multiprocessing.Pool(jobs) if jobs > 1 else nullcontext() as pool:
        chunk = min(64, max(1, count // (4 * jobs)))  # as Pool.map sizes chunks, but at most 64
        for r in pool.imap(_batch_one, tasks, chunk) if pool else map(_batch_one, tasks):
            if r["error"]:
                failures.append(r)
            max_ext, max_dim = max(max_ext, r["extensions"]), max(max_dim, r["dimension"] or 0)
    _echo("instances: %d  failures: %d  max extensions: %d" % (count, len(failures), max_ext))
    if max_dim:
        _echo("max exact dimension observed: %d" % max_dim)
    for r in failures:
        _echo("failed seed %d: %s" % (r["seed"], r["error"]), err=True)
        for line in r["witness"]:
            _echo("  %s" % line, err=True)
    if failures:
        sys.exit(1)


def _batch_one(task):
    family, n, seed, oracle_cap = task
    out = {"seed": seed, "error": None, "extensions": 0, "dimension": None, "witness": []}
    try:
        p = generators.generate(family, n, seed)
        r = realize_tw2(p)
        out["extensions"] = len(r)
        if len(r) > len(ALL_CLASSES):
            out["error"] = "more than 12 extensions"
        elif not p.verify_realizer(r.orders()):
            out["error"] = "realizer does not verify"
        elif oracle_cap and p.incomparable_count() <= oracle_cap:
            out["dimension"] = exactdim.dimension_exact(p, cap=oracle_cap).dimension
    except ReversibilityViolation as exc:
        out["error"] = str(exc)
        out["witness"] = _witness_lines(exc)
    except SpdimError as exc:
        out["error"] = str(exc)
    return out


if __name__ == "__main__":
    main()
