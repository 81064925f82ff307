"""Command-line surface: load root data and forms, run the dual
constructions and comparisons, emit deterministic text reports.

Each kind of input has one reader: `_json_object` for every JSON file,
`_with_datum` for --group or --rd-file, and `_form_file` or `_q_form` for
a form from a file or from --q-exp/--q-tau.

Exit status 0 on success, 1 on domain errors, 2 on usage errors.  All
numbers are printed in exact integer / fraction notation.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import click

from . import characters as ch
from . import dualgroup as dg
from . import qform as qf
from . import rootdata as rdmod
from .lattice import MalformedMatrixError, Sublattice
from .qform import Exponent, QForm


class DomainError(click.ClickException):
    exit_code = 1


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad fraction {text!r}: {exc}") from None


def _vector(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad integer vector {text!r}: {exc}") from None


def _weight(rd, text, flag):
    """A weight given by `flag`, of the datum's rank."""
    v = _vector(text)
    if len(v) != rd.rank:
        raise click.UsageError(f"{flag} {text} has length {len(v)}, not the rank {rd.rank}")
    return v


def _json_object(path, what):
    """The JSON object in the file at `path`, `what` naming the file in a
    usage error when it cannot be read or parsed or holds something else."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot load {what}: {exc}") from None
    if not isinstance(raw, dict):
        raise click.UsageError(f"{what} must hold a JSON object")
    return raw


def _load_datum(group, rd_file):
    if (group is None) == (rd_file is None):
        raise click.UsageError("give exactly one of --group or --rd-file")
    if group is not None:
        return rdmod.standard(group)
    raw = _json_object(rd_file, "root datum file")
    try:
        return rdmod.RootDatum.from_dict(raw)
    except (KeyError, TypeError, MalformedMatrixError) as exc:
        raise click.UsageError(f"cannot load root datum: {exc}") from None


def _scaled(gram, c):
    """A library Gram, rows of Fractions, times the rational c."""
    return [[x * c for x in row] for row in gram]


def _q_form(rd, q_exp, q_tau):
    """The minimal even Gram times a (--q-exp) and times b (--q-tau), each 0
    when not given."""
    gram, _ = qf.minimal_even_gram(rd)
    return QForm(rd, *(_scaled(gram, _fraction(t) if t else 0) for t in (q_exp, q_tau)))


def _form_file(rd, path):
    """The datum and the form of a form file, which names its datum, by a
    path relative to itself, exactly when `rd` is None."""
    raw = _json_object(path, "form file")
    if rd is None:
        ref = raw.get("root_datum")
        if not isinstance(ref, str):
            raise click.UsageError("form file does not name a root_datum")
        rd = _load_datum(None, str(Path(path).parent / ref))
    elif "root_datum" in raw:
        raise click.UsageError(
            "the form file names its root_datum; give it without --group or --rd-file")
    try:
        return rd, QForm.from_dict(rd, raw)
    except KeyError as exc:
        raise click.UsageError(f"form file lacks {exc}") from None
    except TypeError as exc:
        raise click.UsageError(f"bad form file: {exc}") from None


def _lattice_str(lat: Sublattice):
    if lat.rank == 0:
        return "0"
    if lat.ambient_rank == 1:
        return f"{lat.basis.data[0][0]}Z"
    rows = ["(" + ",".join(str(x) for x in r) + ")" for r in lat.basis.data]
    return "span{" + ", ".join(rows) + "}"


def _classify(datum: rdmod.RootDatum):
    if datum.num_simple == 0:
        return f"torus of rank {datum.rank}"
    if datum.num_simple == 1 and datum.rank == 1:
        pi1 = datum.pi1()
        if pi1.is_trivial():
            return "A1 (simply-connected)"
        if pi1.invariant_factors == (2,):
            return "A1 (adjoint)"
    cartan = "; ".join(",".join(str(x) for x in row) for row in datum.cartan_matrix)
    return f"cartan [{cartan}], pi1 {datum.pi1().describe()}"


def _mult_str(m):
    return "inf" if m is None else str(m)


def _echo_dual(td: dg.TwistedDual):
    click.echo(f"weight lattice: {_lattice_str(td.weight_sublattice)}")
    click.echo("multipliers: [" + ", ".join(_mult_str(m) for m in td.multipliers) + "]")
    if td.dropped:
        click.echo("dropped coroots: " + ", ".join(str(i) for i in td.dropped))
    click.echo(f"dual rank: {td.datum.rank}")
    click.echo("dual simple roots: "
               + json.dumps([list(r) for r in td.datum.simple_roots.data]))
    click.echo("dual simple coroots: "
               + json.dumps([list(r) for r in td.datum.simple_coroots.data]))
    click.echo(f"dual type: {_classify(td.datum)}")


class _Main(click.Group):
    """Maps a `ValueError` escaping any command to a domain error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise DomainError(str(exc)) from None


@click.group(cls=_Main)
def main():
    """Twisted dual root data from invariant quadratic forms."""


# orders, levels and twisting integers
_POSITIVE = click.IntRange(min=1)


def _with_datum(optional=False):
    """Adds --group and --rd-file to a command and calls it with `rd`, the
    datum they name; when `optional`, None if neither is given."""
    def decorate(fn):
        @click.option("--group", help="standard group label, e.g. SL2, PGL3, Sp4, G2")
        @click.option("--rd-file", type=click.Path(), help="root datum JSON file")
        @functools.wraps(fn)
        def command(group, rd_file, **kwargs):
            none = optional and group is None and rd_file is None
            return fn(rd=None if none else _load_datum(group, rd_file), **kwargs)
        return command
    return decorate


@main.command()
@_with_datum(optional=True)
@click.option("--q-exp", help="rational a/b: form q0^f with q0 = e^(2 pi i a/b)")
@click.option("--q-tau", help="rational coefficient of the formal irrational part")
@click.option("--form-file", type=click.Path(), help="explicit Gram form JSON")
@click.option("--mode", type=click.Choice(["full", "coroot"]), default="full")
@click.option("--emit", type=click.Path(), help="write the dual datum as JSON")
def dual(rd, q_exp, q_tau, form_file, mode, emit):
    """Twisted dual of an invariant form."""
    if form_file is not None:
        if (q_exp, q_tau) != (None, None):
            raise click.UsageError("give --form-file or --q-exp/--q-tau, not both")
        rd, form = _form_file(rd, form_file)
    elif rd is None:
        raise click.UsageError("a root datum is required")
    else:
        form = _q_form(rd, q_exp, q_tau)
    td = dg.twisted_dual(rd, form, mode)
    click.echo(f"group: {rd.name or 'custom'}")
    click.echo(f"mode: {mode}")
    _echo_dual(td)
    if emit:
        try:
            Path(emit).write_text(json.dumps(td.to_dict(), indent=2) + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write --emit file: {exc}") from None


@main.command("langlands")
@_with_datum()
def langlands_cmd(rd):
    """Langlands dual (trivial form)."""
    td = dg.langlands_dual(rd)
    click.echo(f"group: {rd.name or 'custom'}")
    _echo_dual(td)


@main.command("fl-dual")
@_with_datum()
@click.option("--d", type=_POSITIVE, required=True)
@click.option("--n", "big_n", type=_POSITIVE, required=True, help="the level N")
def fl_dual_cmd(rd, d, big_n):
    """Finkelberg-Lysenko dual at level N with twisting integer d."""
    td = dg.fl_dual(rd, d, big_n)
    click.echo(f"group: {rd.name or 'custom'}  d: {d}  N: {big_n}")
    _echo_dual(td)


@main.command("lusztig-dual")
@_with_datum()
@click.option("--l", "order", type=_POSITIVE, required=True)
@click.option("--f", "f_values", help="comma list overriding the standard symmetrizers")
def lusztig_dual_cmd(rd, order, f_values):
    """Lusztig's dual datum at a root of unity of order l."""
    if f_values:
        f = _vector(f_values)
        if len(f) != rd.num_simple or min(f) < 1:
            raise click.UsageError(
                f"--f {f_values} must give {rd.num_simple} positive integers")
        cd = qf.CartanDatum(rd, f)
    else:
        cd = qf.CartanDatum.standard(rd)
    td = dg.lusztig_dual(cd, order)
    click.echo(f"group: {rd.name or 'custom'}  f: {list(cd.f)}  l: {order}")
    _echo_dual(td)


@main.command("quantum-pair")
@_with_datum()
@click.option("--n", "level", type=_POSITIVE, help="b = (1/N) normalized Killing")
@click.option("--gram-file", type=click.Path(), help="explicit rational Gram JSON")
def quantum_pair_cmd(rd, level, gram_file):
    """Both sides of the quantum-Langlands comparison, with the lattice map."""
    if (level is None) == (gram_file is None):
        raise click.UsageError("give exactly one of --n or --gram-file")
    if level is not None:
        b = _scaled(qf.normalized_killing_gram(rd), Fraction(1, level))
    else:
        raw = _json_object(gram_file, "gram file")
        try:
            b = qf.decode_gram(raw["gram"])
        except (KeyError, TypeError) as exc:
            raise click.UsageError(f"cannot load gram file: {exc}") from None
    pair = dg.quantum_dual_pair(rd, b)
    click.echo(f"group: {rd.name or 'custom'}")
    click.echo("left:")
    _echo_dual(pair.left)
    click.echo("right:")
    _echo_dual(pair.right)
    click.echo("iso: " + json.dumps([list(r) for r in pair.iso.data]))


_KINDS = ("twisted", "fl", "lusztig", "langlands", "half-forms")


@main.command()
@click.argument("first", type=click.Choice(_KINDS))
@click.argument("second", type=click.Choice(_KINDS))
@_with_datum()
@click.option("--d", type=_POSITIVE)
@click.option("--n", "big_n", type=_POSITIVE)
@click.option("--l", "order", type=_POSITIVE)
@click.option("--q-exp")
@click.option("--q-tau")
def compare(first, second, rd, d, big_n, order, q_exp, q_tau):
    """Build two dual constructions and report AGREE / DISAGREE."""
    # both sides' flags are checked before either side is built
    for kind in (first, second):
        if kind == "fl" and None in (d, big_n):
            raise click.UsageError("fl needs --d and --n")
        if kind == "lusztig" and order is None:
            raise click.UsageError("lusztig needs --l")
    explicit = q_exp is not None or q_tau is not None
    if first == second == "twisted" and not explicit:
        raise click.UsageError("twisted vs twisted needs --q-exp")
    cartan = lambda: qf.CartanDatum.standard(rd)
    fl_gram = lambda: _scaled(qf.normalized_killing_gram(rd), Fraction(d, big_n))
    # kind -> (its dual, the twisted dual that mirrors it)
    table = {
        "twisted": (lambda: dg.twisted_dual(rd, _q_form(rd, q_exp, q_tau)), None),
        "fl": (lambda: dg.fl_dual(rd, d, big_n),
               lambda: dg.twisted_dual(rd, QForm(rd, fl_gram()))),
        "lusztig": (lambda: dg.lusztig_dual(cartan(), order),
                    lambda: dg.twisted_dual(rd, qf.cartan_qform(cartan(), order), "coroot")),
        "langlands": (lambda: dg.langlands_dual(rd),) * 2,
        "half-forms": (lambda: dg.twisted_dual(rd, qf.half_forms_qform(rd)),
                       lambda: dg.langlands_dual(rd)),
    }
    # an explicit form wins, else the twisted side mirrors the other side
    left, right = ((table[other][1] if kind == "twisted" and not explicit else table[kind][0])()
                   for kind, other in ((first, second), (second, first)))
    result = dg.isomorphic(left.datum, right.datum)
    if result.status == "iso":
        click.echo("AGREE")
        click.echo("witness: " + json.dumps([list(r) for r in result.weight_map.data]))
    else:
        click.echo("DISAGREE")
        click.echo("first:  " + json.dumps(left.datum.to_dict(), sort_keys=True))
        click.echo("second: " + json.dumps(right.datum.to_dict(), sort_keys=True))
        raise SystemExit(1)


@main.command()
@_with_datum()
@click.option("--hw", required=True, help="dominant weight, comma separated")
def weights(rd, hw):
    """Weight multiplicities of an irreducible, as a sorted table."""
    click.echo(ch.irreducible_character(rd, _weight(rd, hw, "--hw")).table())


@main.command()
@_with_datum()
@click.option("--a", "hw1", required=True)
@click.option("--b", "hw2", required=True)
def tensor(rd, hw1, hw2):
    """Tensor decomposition of two irreducibles."""
    pieces = ch.tensor_decompose(ch.irreducible_character(rd, _weight(rd, hw1, "--a")),
                                 _weight(rd, hw2, "--b"))
    for w, m in sorted(pieces.items()):
        click.echo(f"{','.join(str(x) for x in w)}: {m}")


@main.command("rank1-table")
@click.option("--r0", type=_POSITIVE, required=True)
@click.option("--p", type=int, default=1, show_default=True)
def rank1_table_cmd(r0, p):
    """Kernels of the rank-one form of order r0, in adjoint coordinates."""
    t = dg.rank1_table(r0, p)
    click.echo(f"r0: {t.r0}  p: {t.p}  case: {t.case}")
    click.echo(f"PGL2 kernel: {_lattice_str(t.adjoint_kernel)}")
    click.echo(f"SL2 kernel:  {_lattice_str(t.simply_connected_kernel)}")


@main.command()
@_with_datum()
@click.option("--component", type=int, default=0, show_default=True)
@click.option("--a-exp", default="0", show_default=True)
@click.option("--a-tau", default="0", show_default=True)
def killing(rd, component, a_exp, a_tau):
    """Killing-type form of one irreducible component at a given value."""
    a = Exponent(_fraction(a_exp), _fraction(a_tau))
    form = qf.killing_qform(rd, component, a)
    click.echo(f"group: {rd.name or 'custom'}  component: {component}  a: {a}")
    click.echo("gram_rational: "
               + json.dumps([[str(x) for x in row] for row in form.g0]))
    for i in range(rd.num_simple):
        cor = rd.simple_coroots.row(i)
        click.echo(f"Q(coroot_{i}) = {form.q(cor)}")


@main.command()
@_with_datum()
def validate(rd):
    """Full root-datum validation with a structural summary."""
    click.echo(f"group: {rd.name or 'custom'}")
    click.echo(f"rank: {rd.rank}")
    click.echo(f"simple roots: {rd.num_simple}")
    click.echo(f"roots: {len(rd.root_pairs)}")
    click.echo(f"weyl order: {rd.weyl_order()}")
    click.echo(f"pi1: {rd.pi1().describe()}")
    click.echo("OK")


@main.command("verify-forms")
@_with_datum()
@click.option("--samples", type=click.IntRange(min=0), default=25, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--coord-bound", type=click.IntRange(min=0), default=5, show_default=True)
def verify_forms(rd, samples, seed, coord_bound):
    """Spot-check the form laws on random forms.

    Each sample draws a form and two coweights and checks the quadratic
    law, the symmetry of kappa and the epsilon defect on each simple
    coroot; a failing sample prints one FAIL line, and any failure exits 1.
    """
    if rd.rank == 0:
        raise click.UsageError("verify-forms needs a datum of rank >= 1")
    basis = qf.invariant_gram_basis(rd)
    rng = random.Random(seed)

    def rand_gram():
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in basis]
        return [
            [sum(c * b[i][j] for c, b in zip(coeffs, basis))
             for j in range(rd.rank)]
            for i in range(rd.rank)
        ]

    failures = 0
    for k in range(samples):
        form = QForm(rd, rand_gram() if basis else None,
                     rand_gram() if basis else None)
        lam = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(rd.rank))
        mu = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(rd.rank))
        checks = {
            "quadratic-law": (form.q(tuple(a + b for a, b in zip(lam, mu)))
                              == form.q(lam) + form.q(mu) + form.kappa(lam, mu)),
            "kappa-symmetric": form.kappa(lam, mu) == form.kappa(mu, lam),
        }
        for i in range(rd.num_simple):
            cor = rd.simple_coroots.row(i)
            checks[f"epsilon-{i}"] = qf.epsilon_defect(form, cor, lam).is_zero()
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failures += 1
            click.echo(f"FAIL sample {k}: {', '.join(bad)}")
    if failures:
        raise DomainError(f"{failures} failures")
    click.echo(f"PASS {samples} samples on {rd.name or 'custom'}")


if __name__ == "__main__":
    main()
